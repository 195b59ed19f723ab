"""A fixed reference load that times the machine, not the program.

The shared 2-vCPU host these numbers come from changes speed by up to 25%
for a minute or more at a time, and all work slows together, if not by the
same share.  A run therefore times a block of this reference unit before
its first pass and after every pass.  The unit is the kind of work the
workloads do: small complex matrix-vector products, inner products and
allocations on 64-dim arrays, a 64x64 matrix product, and interpreted
Python that builds tuples, lists, strings and a dict.  It never calls the
program, so a change to the program moves the timed passes and not the
reference.

A run's *speed factor* is ``REF_NOMINAL_S`` over the median of its blocks,
raised to ``SPEED_EXPONENT``.  Multiplying the run's times by it gives the
times it would have measured in a spell where the unit takes
``REF_NOMINAL_S``.  One factor per run, not per pass: a single block is
itself noisy, and what has to be taken out is the spell a whole run fell
into.

Every run prints the median block of this machine as ``machine_ref_ms``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference time of one unit on the machine the recorded numbers come from
#: (2-vCPU Intel Xeon VM, numpy 2.4.6, one BLAS thread), in a typical spell.
REF_NOMINAL_S = 4.5e-4

#: How the teleport workloads' times follow the reference's from spell to
#: spell: in a fast spell the unit took about 0.6 of its slow-spell time and
#: an electronic-haar pass 0.64 to 0.72 of its own, so time ~ unit ** 0.65
#: to 0.9.  Over three sets of ten runs, 0.8 gave about the smallest
#: spreads; 1 left fast-spell runs up to 15% high.
SPEED_EXPONENT = 0.8

#: Units timed per block; the block's time is their median.
REPEATS = 25

_RNG = np.random.default_rng(20240611)
_A = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_V = _A[0].copy()


def _unit() -> None:
    for i in range(20):
        w = _A @ _V
        y = np.zeros(64, dtype=complex)
        y[i % 64] = np.vdot(w, _V)
        np.abs(y).sum()
    _A @ _A
    table = {}
    for i in range(300):
        table[(i, i & 7)] = [i, str(i)]
    sum(len(v[1]) for v in table.values())


def reference_s(repeats: int = REPEATS, clock=time.perf_counter) -> float:
    """Median time of one reference unit over ``repeats`` units."""
    samples = []
    for _ in range(repeats):
        t0 = clock()
        _unit()
        samples.append(clock() - t0)
    return statistics.median(samples)


def speed_factor(refs_s: list[float], nominal_s: float = REF_NOMINAL_S) -> float:
    """Speed factor of a run from the reference blocks timed during it."""
    return (nominal_s / statistics.median(refs_s)) ** SPEED_EXPONENT

