"""Spans around calls into the program's layers, recorded from outside.

The tracer wraps public functions and rebinds every module attribute that
refers to them, because callers look functions up by name at call time:
``protocol`` did ``from .measure import measure_spin``, so rebinding only
``measure.measure_spin`` would miss the calls ``protocol`` makes.

Each span is ``(name, start_ns, end_ns, parent_index, call_id)``.  Spans stay
in memory and are written once, at the end of a run.  A span's self time is
its duration minus the durations of its direct children; single-threaded
calls nest, so the children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, cpu_clock=time.process_time_ns):
        self.spans: list = []
        self.cpu_ns: dict[str, int] = {}
        #: Index of the workload call that the next spans belong to.
        self.call_id = -1
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, cpu: bool = False):
        """``fn`` recording one span per call; ``cpu`` also sums process CPU time."""
        spans, stack, clock, cpu_clock = self.spans, self._stack, self._clock, self._cpu_clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            c0 = cpu_clock() if cpu else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.call_id)
                if cpu:
                    tracer.cpu_ns[name] = tracer.cpu_ns.get(name, 0) + cpu_clock() - c0

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, package: str) -> None:
        """Wrap each ``(span_name, owner, attr, cpu)`` target.

        A plain function is rebound wherever a module of ``package`` holds it;
        a static method is rebound on its class.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, owner, attr, cpu in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self.wrap(name, raw.__func__, cpu)))
                continue
            traced = self.wrap(name, raw, cpu)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._set(mod, key, traced)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` rebound."""
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, inspect.getattr_static(owner, key)))
        setattr(owner, key, value)

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("name,start_ns,end_ns,parent,call_id\n")
            for name, t0, t1, parent, call_id in self.spans:
                fh.write(f"{name},{t0},{t1},{parent},{call_id}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def layer_totals(spans) -> tuple[dict[str, list[int]], int]:
    """``{name: [calls, self_ns]}`` and the summed duration of top-level spans."""
    totals: dict[str, list[int]] = {}
    top_ns = 0
    for span, own in zip(spans, self_times(spans)):
        name, t0, t1, parent, _ = span
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += own
        if parent < 0:
            top_ns += t1 - t0
    return totals, top_ns
