"""Vectorised trial engine for the electronic and cold-atom variants.

One call runs a batch of trials; the protocol steps are those of
:func:`edgeteleport.protocol.run_teleport_once`, the reference the tests
compare against.  The linear algebra runs on distinct state rows, and each
trial carries ``of``, the index of its row: a fixed input gives one row for
the whole batch, Haar-random inputs one row per trial.  Every cold-atom miss
relaxes the a-b wires to the same state, so the state before a round depends
only on the input and the round; the restart loop keeps one row per input
with trials still running, and trials only compare their uniforms with their
row's probability.

Sector blocks are stacked side by side, so each measurement and each
relaxation is one matrix product over the rows, and a 0/1 sector indicator
(``protocol._indicator``) sums the squared coordinates into sector weights
with one more.  Alice's measurement reads ``X @ M``: ``X`` is the ``(m, 2)``
array of input amplitudes for electronic trials (``M`` has the two inputs
folded in) and the ``(m, 64)`` array of states for cold-atom ones.  Bob's
correction runs once per (row, sector) pair that some trial reached: the
pairs are sorted by sector, so each branch owns one segment of them, and the
only loop, over the four branches, is one matrix product per non-empty
segment into a shared block.  Bob's overlap, both norms, the ``tr > 0`` guard
and the square root then run once over all pairs.  The setup mapping is
built once per variant by ``protocol._kernel_setup``.

Randomness never enters here: callers supply each trial's uniforms from the
counter-based streams the step-by-step path draws from, so both make
identical branch decisions.  The cold-atom engine asks a callback for the
uniforms of the trials still active in each round; the callback reads a
round's class draws as one column of the chunk's table of draws.
"""

from __future__ import annotations

import numpy as np

from .measure import born_index
from .relax import _ORTHO_TOL, _WEIGHT_FLOOR


def _norm2(x):
    """Squared norm of each row of a complex array with contiguous rows."""
    r = x.view(np.float64)
    return np.einsum("ij,ij->i", r, r)


def _distinct(idx, m):
    """The distinct values of ``idx`` (all in ``range(m)``) in increasing
    order, and the position of each entry of ``idx`` among them."""
    present = np.zeros(m, dtype=bool)
    present[idx] = True
    return present.nonzero()[0], (np.cumsum(present) - 1)[idx]


def _relax(psi, setup):
    """Row-wise ``relax.relax_to_ground`` in two products over stacked blocks.

    ``psi @ relax_cols`` holds the sector and ground-space coordinates, whose
    weights give each ground coordinate its sector's rescale ``w / wy``.
    """
    d = psi @ setup["relax_cols"]
    weights = np.sqrt(np.square(d.view(np.float64)) @ setup["relax_sectors"])
    n_sectors = weights.shape[1] // 2
    w, wy = weights[:, :n_sectors], weights[:, n_sectors:]
    keep = w > _WEIGHT_FLOOR
    if np.any(keep & (wy < _ORTHO_TOL * w)):
        raise RuntimeError(
            "sector component is orthogonal to its sector ground space; "
            "relaxation target undefined"
        )
    scale = np.divide(w, wy, out=np.zeros_like(w), where=keep)
    # the sector bases tile the whole space: ground coordinates follow them
    ground = d[:, psi.shape[1]:]
    out = (ground * scale[:, setup["ground_sector"]]) @ setup["ground_t"]
    total = np.sqrt(_norm2(out))
    if np.any(total < _WEIGHT_FLOOR):
        raise RuntimeError("relaxation produced the zero vector")
    return out / total[:, None]


def _measure_and_correct(setup, x, g, of, u):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    ``x`` holds the distinct state rows and ``g`` their ``(g1, g2)`` inputs;
    trial ``i`` is in row ``of[i]`` and draws its sector with ``u[i]``.
    Returns each trial's index into ``protocol.BRANCHES`` and Bob's fidelity,
    computed once per (row, branch) pair that some trial reached; the pairs
    are grouped by sector, so each branch's product covers one segment of
    them.  ``x @ bob`` is ``[au | sign * ad]``, Bob's amplitudes unscaled by
    ``1 / sqrt(p)``, which cancels in ``val / tr`` with
    ``val = t^dag rho t = |conj(g1) au + conj(g2) sign ad|^2`` and
    ``tr = |au|^2 + |ad|^2``.
    """
    probs = np.square((x @ setup["alice"]).view(np.float64)) @ setup["alice_sectors"]
    sector = born_index(probs.take(of, axis=0), u)
    branch = setup["branch_of_sector"][sector]
    if (branch < 0).any():
        j, m = setup["sector_labels"][sector[np.argmax(branch < 0)]]
        raise RuntimeError(f"Alice measured (J, Jz) = ({j:g}, {m:g}), "
                           "which has no correction for Bob")
    cell = of * probs.shape[1] + sector  # each trial's (row, sector) pair, flat
    reached = np.zeros(probs.shape, dtype=bool)
    reached.ravel()[cell] = True
    # the reached pairs sorted by sector: each branch owns one segment
    sectors, rows = reached.T.nonzero()
    bounds = np.searchsorted(sectors, setup["bob_bounds"]).tolist()
    xr = x[rows]
    a = np.empty((len(rows), setup["bob"][0].shape[1]), dtype=np.complex128)
    for (lo, hi), bob in zip(bounds, setup["bob"]):
        if lo < hi:
            np.matmul(xr[lo:hi], bob, out=a[lo:hi])
    v = np.einsum("ik,ikj->ij", g[rows].conj(), a.reshape(len(rows), 2, -1))
    tr = _norm2(a)
    fid = np.empty(probs.shape)  # read only where reached
    fid[rows, sectors] = np.sqrt(np.divide(_norm2(v), tr, out=np.zeros_like(tr), where=tr > 0.0))
    return branch, fid.take(cell)


def electronic_batch(setup, g, of, u_branch):
    """Branch index and fidelity of each electronic trial.

    ``g`` holds the ``(m, 2)`` distinct inputs and ``of`` each trial's row.
    """
    return _measure_and_correct(setup, g, g, of, u_branch)


def coldatom_batch(setup, g, of, draw, max_rounds):
    """Branch index, rounds and fidelity of each cold-atom trial.

    ``g`` holds the ``(m, 2)`` distinct inputs and ``of`` each trial's row.
    ``draw(trials, k)`` returns, for the trials at the integer array
    ``trials``, their ``k``-th uniform in stream order (``k`` a scalar or one
    entry per trial): draw ``r - 1`` decides class measurement ``r`` and draw
    ``rounds`` the branch.  Hitting ``max_rounds`` raises, as in the
    step-by-step path.
    """
    n = len(of)
    origin, at = _distinct(of, len(g))  # the input of each live row
    psi = g[origin] @ setup["inputs"]  # one row per input with running trials
    live = np.stack([np.arange(n), at])  # (trial, row) of each running trial
    # (projected rows, their weights, their inputs) of every round; a
    # trial's ``end`` is the row it stops in, counted over all rounds
    kept, end = [], np.empty(n, dtype=np.int64)
    n_rows = 0
    for r in range(1, max_rounds + 1):
        x = psi @ setup["p_int"].T
        p = _norm2(x)
        kept.append((x, p, origin))
        hit = draw(live[0], r - 1) < p[live[1]]
        stopped = live[:, hit]
        end[stopped[0]] = n_rows + stopped[1]
        n_rows += len(p)
        live = live[:, ~hit]
        if not live.shape[1]:
            break
        if r == max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        if len(psi) > 1:  # a single row stays live while any trial runs
            go, live[1] = _distinct(live[1], len(psi))
            psi, x, origin = psi[go], x[go], origin[go]
        y = psi - x
        psi = _relax(y / np.sqrt(_norm2(y))[:, None], setup)
    rounds = np.repeat(np.arange(1, len(kept) + 1), [len(p) for _, p, _ in kept])[end]
    stop, end = _distinct(end, n_rows)  # the rows some trial stops in
    x, p, origin = (np.concatenate(a)[stop] for a in zip(*kept))
    branch, fid = _measure_and_correct(setup, x / np.sqrt(p)[:, None], g[origin], end,
                                       draw(np.arange(n), rounds))
    return branch, rounds, fid
