"""Vectorised trial engine for the electronic and cold-atom variants.

One call runs a batch of trials, one row per trial; the protocol steps are
those of :func:`edgeteleport.protocol.run_teleport_once`, the reference the
tests compare against.  Sector blocks are stacked side by side, so each
measurement and each relaxation is one matrix product over the batch, and a
0/1 sector indicator (``protocol._indicator``) sums the squared coordinates
into sector weights with one more.  Alice's measurement reads ``X @ M``:
``X`` is the ``(n, 2)`` array of input amplitudes for electronic trials
(``M`` has the two inputs folded in) and the ``(n, 64)`` array of states for
cold-atom ones.  Only Bob's correction loops, over the four branches.  The
setup mapping is built once per variant by ``protocol._kernel_setup``.

Randomness never enters here: callers supply each trial's uniforms from the
counter-based streams the step-by-step path draws from, so both make
identical branch decisions.  The cold-atom engine asks a callback for the
uniforms of the trials still active in each round.
"""

from __future__ import annotations

import numpy as np

from .measure import born_index
from .relax import _ORTHO_TOL, _WEIGHT_FLOOR


def _norm2(x):
    """Squared norm of each row of a complex array with contiguous rows."""
    r = x.view(np.float64)
    return np.einsum("ij,ij->i", r, r)


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


def _measure_and_correct(setup, x, u, g):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    ``g`` holds the ``(g1, g2)`` rows.  Returns the index into
    ``protocol.BRANCHES`` (``-1`` for an outcome outside them) and Bob's
    fidelity for every row.  ``x @ bob`` is ``[au | sign * ad]``, Bob's
    amplitudes unscaled by ``1 / sqrt(p)``, which cancels in ``val / tr`` with
    ``val = t^dag rho t = |conj(g1) au + conj(g2) sign ad|^2`` and
    ``tr = |au|^2 + |ad|^2``.
    """
    probs = np.square((x @ setup["alice"]).view(np.float64)) @ setup["alice_sectors"]
    sector = born_index(probs, u)
    fid = np.empty(len(x))
    for s, bob in setup["bob"]:
        rows = sector == s
        a = x[rows] @ bob
        v = np.einsum("ik,ikj->ij", g[rows].conj(), a.reshape(-1, 2, bob.shape[1] // 2))
        tr = _norm2(a)
        fid[rows] = np.sqrt(np.divide(_norm2(v), tr, out=np.zeros_like(tr), where=tr > 0.0))
    return setup["branch_of_sector"][sector], fid


def electronic_batch(setup, g1s, g2s, u_branch):
    """Branch index and fidelity of each electronic trial."""
    g = np.stack([g1s, g2s], axis=1)
    return _measure_and_correct(setup, g, u_branch, g)


def coldatom_batch(setup, g1s, g2s, draw, max_rounds):
    """Branch index, rounds and fidelity of each cold-atom trial.

    ``draw(rows, k)`` returns, for the trials at the integer array ``rows``,
    their ``k``-th uniform in stream order (``k`` a scalar or one entry per
    row): draw ``r - 1`` decides class measurement ``r`` and draw ``rounds``
    the branch.  Hitting ``max_rounds`` raises, as in the step-by-step path.
    """
    n = len(g1s)
    g = np.stack([g1s, g2s], axis=1)
    psi = g @ setup["inputs"]
    rounds = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for r in range(1, max_rounds + 1):
        x = psi[active] @ setup["p_int"].T
        p = _norm2(x)
        rounds[active] = r
        hit = draw(active, r - 1) < p
        psi[active[hit]] = x[hit] / np.sqrt(p[hit])[:, None]
        miss = ~hit
        y = psi[active[miss]] - x[miss]
        active = active[miss]
        if not active.size:
            break
        if r == max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        psi[active] = _relax(y / np.sqrt(_norm2(y))[:, None], setup)
    u_branch = draw(np.arange(n), rounds)
    branch, fid = _measure_and_correct(setup, psi, u_branch, g)
    return branch, rounds, fid
