"""Vectorised trial engine for the electronic and cold-atom variants.

One call runs a batch of trials; the protocol steps are those of
:func:`edgeteleport.protocol.run_teleport_once`, the reference the tests
compare against.  The linear algebra runs on distinct input rows, and each
trial carries ``of``, the index of its row: a fixed input gives one row for
the whole batch, Haar-random inputs one row per trial.

Both variants run on the two-dimensional input span.  ``protocol._kernel_setup``
folds Alice's gates, her stacked sector blocks and Bob's corrected branch
bases onto two rows of states: the two inputs for electronic trials, their
integer-class parts for cold-atom ones.  A cold-atom miss relaxes the a-b
wires back to the initial state, which the setup certifies once for every
input, so each restart round measures the state of round 1: a trial's round
count follows from its draws and its row's class probability alone, and no
state is relaxed here.

Alice's measurement reads ``x @ alice`` for the ``(m, 2)`` coordinates ``x``,
and a 0/1 sector indicator (``protocol._indicator``) sums the squared
coordinates into sector weights with one more product.  Bob's correction
runs once per (row, sector) pair that some trial reached: the pairs are
sorted by sector, so each branch owns one segment of them, and the only
loop, over the four branches, is one matrix product per non-empty segment
into a shared block.  Bob's overlap, both norms, the ``tr > 0`` guard and
the square root then run once over all pairs.

Randomness never enters here: callers supply each trial's uniforms from the
counter-based streams the step-by-step path draws from, so both make
identical branch decisions.  The cold-atom engine counts every trial's
rounds over the block rows of draws taken so far, and takes one more row
only while some trial has not stopped.
"""

from __future__ import annotations

import numpy as np

from .measure import born_index


def _norm2(x):
    """Squared norm of each row of a complex array with contiguous rows."""
    r = x.view(np.float64)
    return np.einsum("ij,ij->i", r, r)


def _measure_and_correct(setup, x, g, of, u):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    ``x`` holds the distinct state rows, as coordinates on the folded rows of
    ``setup``, and ``g`` their ``(g1, g2)`` inputs; trial ``i`` is in row
    ``of[i]`` and draws its sector with ``u[i]``.
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
    # val <= tr up to rounding: capped, val / tr and its root stay <= 1
    val = np.minimum(_norm2(v), tr)
    fid[rows, sectors] = np.sqrt(np.divide(val, tr, out=np.zeros_like(tr), where=tr > 0.0))
    return branch, fid.take(cell)


def electronic_batch(setup, g, of, u_branch):
    """Branch index and fidelity of each electronic trial.

    ``g`` holds the ``(m, 2)`` distinct inputs and ``of`` each trial's row.
    """
    return _measure_and_correct(setup, g, g, of, u_branch)


def coldatom_batch(setup, g, of, upto, first, max_rounds):
    """Branch index, rounds and fidelity of each cold-atom trial.

    ``g`` holds the ``(m, 2)`` distinct inputs and ``of`` each trial's row.
    ``upto(stop)`` returns the chunk's draw table, a row per trial, grown by
    whole Philox block rows to at least ``stop`` columns: column
    ``first + r - 1`` decides class measurement ``r`` and ``first + rounds``
    the branch.  Every round measures the state of round 1, so a trial stops
    in the first round ``r`` whose draw falls below its row's class
    probability ``p``, in the state ``g @ integer_part / sqrt(p)``.  Rounds
    are counted over the block rows drawn so far; one more is drawn only
    while some trial has no hit and fewer than ``max_rounds`` class draws
    exist.  Hitting ``max_rounds`` raises, as in the step-by-step path.
    """
    p = _norm2(g @ setup["integer_part"])
    p_of = p[of, None]
    u = upto(first + 1)
    while True:
        hit = u[:, first:first + max_rounds] < p_of
        if hit.any(axis=1).all():
            break
        if u.shape[1] >= first + max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        u = upto(u.shape[1] + 1)
    rounds = hit.argmax(axis=1) + 1
    u = upto(first + int(rounds.max()) + 1)
    branch, fid = _measure_and_correct(setup, g / np.sqrt(p)[:, None], g, of,
                                       u[np.arange(len(of)), first + rounds])
    return branch, rounds, fid
