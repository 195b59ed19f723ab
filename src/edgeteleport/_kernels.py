"""Vectorised trial engine for the electronic, cold-atom and mixed variants.

One call runs a batch of at most ``_CHUNK`` trials; the protocol steps are
those of ``protocol.run_teleport_once`` and ``run_teleport_mixed``, the
references the tests compare against.  A batch's inputs are real rows ``F``:
a fixed input is one row, which numpy broadcasts over every trial, and
Haar-random inputs are one row per trial, in trial order.

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

Randomness never enters here: callers supply each trial's uniforms from the
counter-based streams the step-by-step path draws from, so both make
identical branch decisions.  The restart loop counts every trial's rounds
over the block rows of draws taken so far, and takes one more row only
while some trial has not stopped.  Mixed trials run on it too, with round 1
at the resource's singlet weight: a hit lands in the electronic state, a
cold-atom hit's normalised state, and a miss relaxes to the cold-atom state.
"""

from __future__ import annotations

import numpy as np

from .fock import _read_only
from .measure import born_index

#: Trials per call at most; a call slices its row indices and electronic rounds from these.
_CHUNK = 1024
_ROWS, _ONE_ROUND = _read_only((np.arange(_CHUNK), np.ones(_CHUNK, dtype=np.int64)))

#: The smallest positive double: ``max(tr, _TINY)`` is ``tr`` for every ``tr > 0``.
_TINY = np.finfo(np.float64).smallest_subnormal


def _measure_and_correct(setup, F, u, p=None):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    ``F`` holds one ``(1, 4)`` row shared by every trial, or row ``i`` for
    trial ``i`` (see the module docstring); trial ``i`` draws its branch with
    ``u[i]``.  A state folded with norm ``sqrt(p)`` passes its rows' ``p``:
    the branch probabilities' running sums are divided by it, while Bob's
    ``val / tr`` does not depend on the scale.  Returns each trial's index
    into ``protocol.BRANCHES`` and Bob's fidelity in that branch.
    """
    lin = F @ setup["forms"]
    k = len(setup["sums"])  # Bob's overlap coordinates, then the linear forms
    val = np.square(lin[:, :k]) @ setup["sums"]
    # the running sums of Alice's four probabilities, Bob's four traces: one per branch
    sums, tr = lin[:, k:-4], lin[:, -4:]
    if p is not None:
        sums = sums / p[:, None]
    branch = born_index(sums, u)
    rows = _ROWS[:len(F)]
    val, tr = val[rows, branch], tr[rows, branch]
    # val <= tr up to rounding: capped, val / tr and its root stay <= 1; a
    # zero trace caps val at 0 too, and the divisor _TINY then gives 0
    return branch, np.sqrt(np.minimum(val, tr) / np.maximum(tr, _TINY))


def electronic_batch(setup, F, u_branch):
    """Branch index, rounds (all 1) and fidelity of each electronic trial, with
    ``F`` and the branch draws ``u_branch`` as in :func:`_measure_and_correct`."""
    branch, fid = _measure_and_correct(setup, F, u_branch)
    return branch, _ONE_ROUND[:len(branch)], fid


def coldatom_batch(setup, F, upto, first, max_rounds, p1=None):
    """Branch index, rounds and fidelity of each cold-atom or mixed trial.

    ``F`` is as in :func:`_measure_and_correct`.  ``upto(stop)`` returns the
    chunk's draw table, a row per trial, grown by whole Philox block rows to
    at least ``stop`` columns: column ``first + r - 1`` decides class
    measurement ``r`` and ``first + rounds`` the branch.  Every round measures
    the state of round 1, so a trial stops in the first round ``r`` whose draw
    falls below its row's class probability ``p = F @ class_form``, in the
    integer-class part of its input scaled by ``1 / sqrt(p)``; round 1 uses
    ``p1`` instead if given (a mixed trial's).  Rounds are counted over the
    block rows drawn so far (the caller may draw several up front); one more
    is drawn only while some trial has no hit and fewer than ``max_rounds``
    class draws exist.  Hitting ``max_rounds`` raises, as in the step-by-step
    path; so does an ``upto`` that stops growing.
    """
    p = F @ setup["class_form"]
    u = upto(first + 1)
    while True:
        c = min(u.shape[1] - first, max_rounds)  # class draws drawn so far
        # a True column after them: a trial with no hit gets c + 1 rounds
        hit = np.ones((len(u), c + 1), dtype=bool)
        np.less(u[:, first:first + c], p[:, None], out=hit[:, :c])
        if p1 is not None:
            np.less(u[:, first], p1, out=hit[:, 0])
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
    branch, fid = _measure_and_correct(setup, F, u[_ROWS[:len(u)], first + rounds], p)
    return branch, rounds, fid

