"""Vectorised trial engine for the electronic, cold-atom and mixed variants.

One call runs a batch of at most ``_CHUNK`` trials, with the steps of
``protocol.run_teleport_once`` and ``run_teleport_mixed``, the references the
tests compare against, and returns each trial's decisions: its branch and
its rounds.  It runs the law ``protocol._kernel_setup`` certifies as Gram
matrices over the two inputs, ideal teleportation (Bennett et al., PRL 70,
1895 (1993)).  For the squared norm ``n = |g1|^2 + |g2|^2``, each of Alice's
branches has weight ``g (I2 / 4) g^dag = n / 4`` and a cold-atom round hits
with ``p = g (I2 / 2) g^dag = n / 2``.  A run has one ``n``, a float, so a
batch compares its draws with scalars.  Bob holds ``c g g^dag`` for a
``c > 0``, so his fidelity ``sqrt(min(n, 1))`` is the run's, not a batch's:
``protocol.run_trials`` computes it once.  No state is relaxed here: the
cold-atom setup certifies that every doublon miss, cold-atom or mixed,
relaxes back to the initial state (a mixed run checks only its resource's
weight on the setup's doublon law).
Callers supply each trial's uniforms from the streams the step-by-step path
reads, so both make identical branch decisions.
"""

from __future__ import annotations

import numpy as np

from .fock import _read_only

#: Trials per call at most; a call slices its row indices and electronic rounds from these.
_CHUNK = 1024
_ROWS, _ONE_ROUND = _read_only((np.arange(_CHUNK), np.ones(_CHUNK, dtype=np.int64)))


def _measure_and_correct(setup, u, s):
    """Each trial's index into ``protocol.BRANCHES``: the running sum
    ``quarters * s`` its draw ``u[i]`` falls in (``s = n`` for an electronic
    trial, 1 once a class hit has scaled the state by ``1 / sqrt(p)``)."""
    return np.add.reduce(u >= s * setup["quarters"], axis=0, dtype=np.intp)


def electronic_batch(setup, n, u_branch):
    """Branch index and rounds (all 1) of each electronic trial, for ``n`` and
    branch draws ``u_branch`` (:func:`_measure_and_correct`)."""
    return _measure_and_correct(setup, u_branch, n), _ONE_ROUND[:len(u_branch)]


def coldatom_batch(setup, n, upto, first, max_rounds, p1=None):
    """Branch index and rounds of each cold-atom or mixed trial.

    ``n`` is as in :func:`_measure_and_correct`.  ``upto(stop)`` returns the
    chunk's draw table, a row per trial, grown by whole Philox block rows to
    at least ``stop`` columns: column ``first + r - 1`` decides class
    measurement ``r`` and ``first + rounds`` the branch.  A trial stops in
    the first round whose draw falls below the float ``p = class_p * n``, or
    ``p1`` in round 1 if given (a mixed run's).  Rounds are counted over the
    block rows drawn so far, and one more is drawn only while some trial has
    no hit and fewer than ``max_rounds`` class draws exist.  Hitting
    ``max_rounds`` raises, as in the step-by-step path; so does an ``upto``
    that stops growing.
    """
    p = setup["class_p"] * n
    u = upto(first + 1)
    while True:
        c = min(u.shape[1] - first, max_rounds)  # class draws drawn so far
        # a True column after them: a trial with no hit gets c + 1 rounds
        hit = np.ones((len(u), c + 1), dtype=bool)
        np.less(u[:, first:first + c], p, out=hit[:, :c])
        if p1 is not None:
            np.less(u[:, first], p1, out=hit[:, 0])
        rounds = hit.argmax(axis=1) + 1
        del hit  # freed before the draw table grows below
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
    # a hit's state is scaled by 1 / sqrt(p): its running sums are quarters * 1
    return _measure_and_correct(setup, u[_ROWS[:len(u)], first + rounds], 1.0), rounds
