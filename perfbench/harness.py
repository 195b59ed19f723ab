"""Closed-loop runner and the statistics the benchmark reports.

Nothing here imports the program under test, so this logic is tested on its
own (see ``tests/test_perfbench.py``).

A workload is any object with three methods:

``inputs(seed, pass_index)``
    The list of call inputs of one pass.  A pure function of its arguments.
``call(inp)``
    One call into the program; this is what per-call latency times.
``check(inp, out, pool)``
    Raises on a wrong output and returns the number of trials the call
    completed.  ``pool`` says whether the output also feeds the run's pooled
    statistical checks (a replayed pass must not count twice).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

#: Candidate percentiles for the tail of a latency distribution.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: How many failure messages a result keeps.
MAX_ERRORS = 5


def tail_percentile(n: int, candidates=PERCENTILES, min_beyond: int = MIN_BEYOND):
    """Highest candidate percentile with at least ``min_beyond`` of ``n`` samples
    beyond it, or ``None`` when even the lowest has too few."""
    best = None
    for p in sorted(candidates):
        if n * (100.0 - p) >= 100.0 * min_beyond - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class LoopResult:
    """What one closed loop over whole passes measured."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    latencies_s: list[float] = field(default_factory=list)
    pass_walls_s: list[float] = field(default_factory=list)
    pass_trials: list[int] = field(default_factory=list)
    refs_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_walls_s)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def merge(results) -> LoopResult:
    """One result holding the calls and passes of several loops."""
    out = LoopResult()
    for r in results:
        out.attempted += r.attempted
        out.failed += r.failed
        out.trials += r.trials
        out.latencies_s += r.latencies_s
        out.pass_walls_s += r.pass_walls_s
        out.pass_trials += r.pass_trials
        out.refs_s += r.refs_s
        out.errors += r.errors[:MAX_ERRORS - len(out.errors)]
    return out


def run_loop(workload, seed: int, budget_s: float, min_calls: int = 0,
             max_passes: int | None = None, pool: bool = True, first_pass: int = 0,
             before_call=None, probe=None, clock=time.perf_counter) -> LoopResult:
    """Run whole passes, one call at a time, each after the previous returns.

    Passes are numbered from ``first_pass``.  At least one pass runs.
    Another pass starts while fewer than ``min_calls`` calls were made, or
    while it is expected (from the mean pass so far) to end within
    ``budget_s`` of the start; ``max_passes`` caps the count.  A call that
    raises or fails its check is counted as failed and the loop goes on.
    Failed calls add no latency sample.  ``probe``, if given, is called
    before the first pass and after every pass, and ``refs_s`` keeps what
    it returns.
    """
    res = LoopResult()
    start = clock()
    p = first_pass
    if probe is not None:
        res.refs_s.append(probe())
    while True:
        calls = workload.inputs(seed, p)
        trials_before = res.trials
        t_pass = clock()
        for inp in calls:
            if before_call is not None:
                before_call(res.attempted)
            res.attempted += 1
            t0 = clock()
            try:
                out = workload.call(inp)
                latency = clock() - t0
                trials = workload.check(inp, out, pool)
            except Exception as exc:  # a failing call is a measurement, not a crash
                res.failed += 1
                if len(res.errors) < MAX_ERRORS:
                    res.errors.append(f"pass {p} call {res.attempted - 1}: "
                                      f"{type(exc).__name__}: {exc}")
                continue
            res.latencies_s.append(latency)
            res.trials += trials
        res.pass_walls_s.append(clock() - t_pass)
        res.pass_trials.append(res.trials - trials_before)
        if probe is not None:
            res.refs_s.append(probe())
        p += 1
        if max_passes is not None and res.passes >= max_passes:
            break
        elapsed = clock() - start
        if res.attempted >= min_calls and elapsed + statistics.fmean(res.pass_walls_s) > budget_s:
            break
    return res


def pass_rates(res: LoopResult) -> list[float]:
    """Trials per second of each pass."""
    return [n / wall for n, wall in zip(res.pass_trials, res.pass_walls_s)]


def binomial_ok(count: int, n: int, p: float, z: float = 5.0) -> bool:
    """``count`` of ``n`` within ``z`` standard deviations of ``n * p``."""
    sigma = (n * p * (1.0 - p)) ** 0.5
    return abs(count - n * p) <= z * sigma
