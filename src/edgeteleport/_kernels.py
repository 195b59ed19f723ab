"""Vectorised trial engine for the electronic, cold-atom and mixed variants.

One call runs a batch of trials; the protocol steps are those of
``protocol.run_teleport_once`` and ``run_teleport_mixed``, the references
the tests compare against.  The arithmetic runs on distinct input rows: a
fixed input gives one row for the whole batch, and each trial carries
``of``, the index of its row; Haar-random inputs give one row per trial, in
trial order, and pass ``of=None``.

Every quantity a trial reads depends on its input ``g`` only through the
density matrix ``q = g g^dag``, four real numbers
``F = (|g1|^2, |g2|^2, Re g1 conj(g2), Im g1 conj(g2))``, so a row is an
``F`` and the engine's arithmetic is real.  ``protocol._kernel_setup`` folds
Alice's gates, her sector bases and Bob's corrected branch bases onto the two
inputs (for cold-atom trials, onto their integer-class parts) and keeps one
real ``(4, K)`` matrix of forms.  The running sums of Alice's four branch
probabilities and Bob's four traces are linear in ``F``, one column each in
``protocol.BRANCHES`` order, so Born sampling reads its running sums straight
from the product and returns the branch; Bob's four overlaps with ``g`` are
quadratic, ``|F @ R|^2`` summed over each branch's columns of a real factor
``R``.  So a batch takes one product ``F @ forms``, one square and one
product with a 0/1 matrix, and every row gets its overlap and trace in all
four branches at once; each trial reads the two of its row and branch and
takes its fidelity from them, with the ``tr > 0`` guard and the square root.

A cold-atom miss relaxes the a-b wires back to the initial state, which the
setup certifies once for every input, so each restart round measures the
state of round 1: a trial's round count follows from its draws and its row's
class probability ``p = F @ class_form`` alone, and no state is relaxed here.
A mixed trial is one class draw, then an electronic or a cold-atom trial.

Randomness never enters here: callers supply each trial's uniforms from the
counter-based streams the step-by-step path draws from, so both make
identical branch decisions.  The cold-atom engine counts every trial's
rounds over the block rows of draws taken so far (the caller draws up front
the rows a chunk's longest trial almost always needs), and takes one more
row only while some trial has not stopped.
"""

from __future__ import annotations

import numpy as np

from .measure import PROB_FLOOR, born_index

#: The smallest positive double: ``max(tr, _TINY)`` is ``tr`` for every ``tr > 0``.
_TINY = np.finfo(np.float64).smallest_subnormal


def _measure_and_correct(setup, F, of, u, p=None):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    ``F`` holds the distinct inputs as ``(m, 4)`` real rows (see the module
    docstring); trial ``i`` is in row ``of[i]``, or in row ``i`` when ``of``
    is ``None``, and draws its branch with ``u[i]``.  A state folded with
    norm ``sqrt(p)`` passes its rows' ``p``: the branch probabilities' running
    sums are divided by it, while Bob's ``val / tr`` does not depend on the
    scale.  Returns each trial's index into ``protocol.BRANCHES`` and Bob's
    fidelity in that branch.
    """
    lin = F @ setup["forms"]
    k = len(setup["sums"])  # Bob's overlap coordinates, then the linear forms
    val = np.square(lin[:, :k]) @ setup["sums"]
    # the running sums of Alice's four probabilities, Bob's four traces: one per branch
    sums, tr = lin[:, k:-4], lin[:, -4:]
    if p is not None:
        sums = sums / p[:, None]
    if of is None:
        of = np.arange(len(F))
    else:
        sums = sums.take(of, axis=0)
    branch = born_index(sums, u)
    val, tr = val[of, branch], tr[of, branch]
    # val <= tr up to rounding: capped, val / tr and its root stay <= 1; a
    # zero trace caps val at 0 too, and the divisor _TINY then gives 0
    return branch, np.sqrt(np.minimum(val, tr) / np.maximum(tr, _TINY))


def electronic_batch(setup, F, of, u_branch):
    """Branch index and fidelity of each electronic trial.

    ``F`` holds the ``(m, 4)`` distinct inputs and ``of`` each trial's row,
    or ``None`` for one row per trial.
    """
    return _measure_and_correct(setup, F, of, u_branch)


def coldatom_batch(setup, F, of, upto, first, max_rounds):
    """Branch index, rounds and fidelity of each cold-atom trial.

    ``F`` holds the ``(m, 4)`` distinct inputs and ``of`` each trial's row,
    or ``None`` for one row per trial.  ``upto(stop)`` returns the chunk's
    draw table, a row per trial, grown by whole Philox block rows to at least
    ``stop`` columns: column ``first + r - 1`` decides class measurement
    ``r`` and ``first + rounds`` the branch.  Every round measures the state
    of round 1, so a trial stops in the first round ``r`` whose draw falls
    below its row's class probability ``p = F @ class_form``, in the
    integer-class part of its input scaled by ``1 / sqrt(p)``.  Rounds are
    counted over the block rows drawn so far (the caller may draw several up
    front); one more is drawn only while some trial has no hit and fewer than
    ``max_rounds`` class draws exist.  Hitting ``max_rounds`` raises, as in
    the step-by-step path; so does an ``upto`` that stops growing.
    """
    p = F @ setup["class_form"]
    p_of = (p if of is None else p[of])[:, None]
    u = upto(first + 1)
    while True:
        c = min(u.shape[1] - first, max_rounds)  # class draws drawn so far
        # a True column after them: a trial with no hit gets c + 1 rounds
        hit = np.ones((len(u), c + 1), dtype=bool)
        np.less(u[:, first:first + c], p_of, out=hit[:, :c])
        rounds = hit.argmax(axis=1) + 1
        longest = int(rounds.max())
        if longest <= c:
            break
        if c == max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        stop = u.shape[1] + 1
        u = upto(stop)
        if u.shape[1] < stop:
            raise RuntimeError(f"upto({stop}) returned {u.shape[1]} draws per trial")
    u = upto(first + longest + 1)
    branch, fid = _measure_and_correct(setup, F, of, u[np.arange(len(u)), first + rounds], p)
    return branch, rounds, fid


def mixed_batch(setup, cold_setup, class_forms, F, of, upto, first, max_rounds):
    """Branch index, rounds and fidelity of each trial on a mixed resource.

    ``F @ class_forms`` gives a row's round-1 weights of the resource's
    singlet part (integer-class) and doublon part (half-odd).  As in
    ``measure_spin_class``, a trial misses if its draw in column ``first`` is
    at or above the first and the second is at least ``PROB_FLOOR``.  Hits
    are in ``setup``'s electronic state, with branch draw ``first + 1``;
    misses run :func:`coldatom_batch` on ``cold_setup`` with their round-1
    class draw set to 1.0, a miss at every class probability.
    """
    weights = F @ class_forms if of is None else (F @ class_forms)[of]
    u = upto(first + 2)
    miss = (u[:, first] >= weights[:, 0]) & (weights[:, 1] >= PROB_FLOOR)
    branch, fid = _measure_and_correct(setup, F, of, u[:, first + 1])
    rounds = np.ones(len(u), dtype=np.int64)
    if miss.any():
        def upto_missed(stop):
            missed = upto(stop)[miss]
            missed[:, first] = 1.0
            return missed
        F_miss, of_miss = (F[miss], None) if of is None else (F, of[miss])
        branch[miss], rounds[miss], fid[miss] = coldatom_batch(
            cold_setup, F_miss, of_miss, upto_missed, first, max_rounds)
    return branch, rounds, fid
