"""Layer-by-layer timings of edgeteleport, written to one BENCH JSON file.

    python benchmarks/bench.py --out BENCH_<sha>.json [--baseline DIR]
                               [--baseline-sha SHA] [--rounds N] [--smallest]

Measures the package in this checkout's ``src/`` and, with ``--baseline``, the
one in ``DIR/src`` (for instance a ``git archive <sha> | tar -x -C DIR``
export of the parent commit) beside it.  Each round starts fresh processes
for every tree, alternating which tree goes first, so the host's slow and
fast spells fall on both sides alike.  Every measuring process runs with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``).

Layers:

- ``import``: ``import edgeteleport`` in a fresh process, numpy's import
  included;
- ``warm_up/<variant>``: the first ``warm_up`` of a fresh process, which
  builds that variant's kernel setup;
- ``run_trials/<variant>/<g>/<n>``: ``run_trials`` after ``warm_up``, for a
  fixed and a Haar-random ``g``; one trial times the fixed cost of a call
  alone; the mixed variant, Haar-random only, at 10^2 and 10^4 trials, on
  the a-b singlet (``mixed``) and on the resource ``diag(1/4, 1/4, 1/2)``
  over (a doublon, b doublon, singlet) (``mixed-diag``), half of whose
  trials restart;
- ``cli.main/teleport/<variant>/<n>``: ``edgeteleport teleport`` end to end,
  writing its report to a temporary file; 50 trials of a fixed ``g`` is the
  call perfbench's coldatom-scan makes;
- ``cli.main/hubbard``, ``cli.main/spectrum/59`` and
  ``cli.main/zeromode/515``: the ``hubbard`` JSON printed to stdout and the
  59-site ``spectrum`` and 515-site ``zeromode`` CSVs written to a temporary
  file, end to end, three of the calls perfbench's chain-sweep makes (515
  sites is about its median call);
- ``numerical_spectrum/<sites>``: the chain eigensolve;
- ``spectrum_csv/<sites>``: the ``spectrum`` command's CSV text, the
  eigensolve included;
- ``zeromode_density_csv/1001``: the ``zeromode`` command's CSV text.

Each layer records the median and quartiles of its call times in seconds,
the sample count, the minor page faults per timed call (``ru_minflt``) and
the ``tracemalloc`` peak of one call.  Peaks come from a separate pass, so no
timing runs under ``tracemalloc``.  A layer missing from one tree's results
is recorded as ``null`` for that tree.

A pooled median folds in the host's slow and fast spells, and one tree's
child can run inside a spell the other's missed.  So a layer measured in both
trees also records the ratio taken per round: ``round_ratios`` holds each
round's current/baseline ratio of the two trees' per-round medians (their
children ran back to back), ``ratio_median`` their median, and ``ratio_ci95``
the order statistics that bracket that median with probability at least 0.95
for any distribution of the ratios (Kalibera & Jones, "Rigorous Benchmarking
in Reasonable Time", ISMM 2013), at the exact binomial coverage
``ratio_ci95_coverage``.  Fewer than six rounds cannot reach 0.95; their
interval is the whole range.  ``verdict`` is ``faster`` or ``slower`` when
the interval reaches 0.95 and lies below or above 1, and ``not resolved``
otherwise.

Each measuring process also times ``reference_s()`` of
``perfbench/calibrate.py`` (imported from this checkout, read-only), a fixed
load that never calls the package: after its layers, and in the runtime
process also before them (a setup process times only after, so that its
layers stay the first work of a fresh process).  ``reference`` records these
times per tree, round and process, and their median per tree;
``median_ref_units`` is a layer's median over its tree's median reference
time.  A file thus states the spell it was measured in, and two files compare
in reference units.

``--smallest`` runs every layer family at small sizes (one and 100 trials
for ``run_trials``), once each, for a quick check of the driver itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = "edgeteleport-bench/1"
ENV = {"OPENBLAS_NUM_THREADS": "1"}

#: Problem sizes per layer family: the full run, and the driver check.
SIZES = {
    False: {"trials": (1, 10**2, 10**4, 10**6), "mixed": (10**2, 10**4), "cli": (50, 10**4),
            "sites": (59, 1001, 2001, 4001)},
    True: {"trials": (1, 10**2), "mixed": (2,), "cli": (50,), "sites": (59,)},
}

#: Seconds of timed calls per layer and round, after one untimed call.
BUDGET_S = 0.3
MAX_CALLS = 2000


def _runtime_layers(sizes: dict, tmp: str) -> dict:
    """Name -> zero-argument call, for every layer timed after ``warm_up``;
    CLI layers write into the directory ``tmp``."""
    import numpy as np
    from edgeteleport import cli, fock, protocol, ssh_lattice

    fixed = protocol.SpinAmplitudes(0.6, 0.8j)
    span = protocol.neutral_spin_zero_basis(fock.AB_MODES)
    resources = {"mixed": None, "mixed-diag": fock.DensityMatrix(
        fock.AB_MODES, span @ np.diag([0.25, 0.25, 0.5]) @ span.conj().T)}
    layers = {}
    for variant in ("electronic", "coldatom"):
        for name, g in (("fixed", fixed), ("haar", None)):
            for n in sizes["trials"]:
                layers[f"run_trials/{variant}/{name}/{n}"] = (
                    lambda g=g, variant=variant, n=n: protocol.run_trials(g, variant, n, seed=1))
    for label, resource in resources.items():
        for n in sizes["mixed"]:
            layers[f"run_trials/{label}/haar/{n}"] = (
                lambda n=n, resource=resource: protocol.run_trials(None, "mixed", n, seed=1,
                                                                   resource=resource))
    for variant in ("electronic", "coldatom"):
        for n in sizes["cli"]:
            argv = ["teleport", "--variant", variant, "--g1", "0.6,0", "--g2", "0,0.8",
                    "--trials", str(n), "--seed", "1", "--out", os.path.join(tmp, "report.json")]
            layers[f"cli.main/teleport/{variant}/{n}"] = lambda argv=argv: _exit_0(cli.main(argv))
    chain = ["--t", "1.0", "--tprime", "0.5", "--out", os.path.join(tmp, "chain.csv")]
    for name, argv in (
            ("cli.main/hubbard", ["hubbard", "--e2", "1.0", "--lambda", "0.05"]),
            ("cli.main/spectrum/59", ["spectrum", "--sites", "59", *chain]),
            ("cli.main/zeromode/515", ["zeromode", "--sites", "515", *chain])):
        layers[name] = lambda argv=argv: _exit_0(cli.main(argv))
    for sites in sizes["sites"]:
        params = ssh_lattice.WireParams(sites)
        layers[f"numerical_spectrum/{sites}"] = (
            lambda params=params: ssh_lattice.numerical_spectrum(params))
        layers[f"spectrum_csv/{sites}"] = lambda params=params: ssh_lattice.spectrum_csv(params)
    params = ssh_lattice.WireParams(1001)
    layers["zeromode_density_csv/1001"] = lambda: ssh_lattice.zeromode_density_csv(params)
    return layers


def _exit_0(code: int) -> None:
    if code != 0:
        raise RuntimeError(f"cli.main exited {code}")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _once(call, trace: bool) -> dict:
    """One call: its time, or with ``trace`` its ``tracemalloc`` peak."""
    if trace:
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"peak_kib": peak / 1024}
    faults, t0 = _minflt(), time.perf_counter()
    call()
    return {"samples": [time.perf_counter() - t0], "minflt": _minflt() - faults}


def _timed(call, smallest: bool) -> dict:
    """Call times after one untimed call, within ``BUDGET_S`` (one call with ``smallest``)."""
    first = time.perf_counter()
    call()
    first = time.perf_counter() - first
    calls = 1 if smallest else max(1, min(MAX_CALLS, int(BUDGET_S / max(first, 1e-9))))
    samples, faults = [], _minflt()
    for _ in range(calls):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return {"samples": samples, "minflt": (_minflt() - faults) / calls}


def _reference_time() -> float:
    """``reference_s()`` of this checkout's ``perfbench/calibrate.py``, loaded
    from its file, so both trees' processes time the same reference load."""
    spec = importlib.util.spec_from_file_location("calibrate", REPO / "perfbench" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_s()


def child(mode: str, src: str, smallest: bool, trace: bool) -> dict:
    """One measuring process: ``setup-<variant>`` times the import and that
    variant's first ``warm_up``; ``runtime`` times every layer after both.
    Without ``trace``, ``reference_s`` holds the reference load's time after
    the layers, and in the runtime process before them (``None`` otherwise)."""
    sys.path.insert(0, src)
    result = {"import": _once(lambda: __import__("edgeteleport"), trace)}
    import edgeteleport
    from edgeteleport import protocol

    if not Path(edgeteleport.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {edgeteleport.__file__}, not the package in {src}")
    result["version"] = edgeteleport.__version__
    before = None
    if mode.startswith("setup-"):
        variant = mode.removeprefix("setup-")
        result[f"warm_up/{variant}"] = _once(lambda: protocol.warm_up(variant), trace)
    else:
        protocol.warm_up("electronic")
        protocol.warm_up("coldatom")
        before = None if trace else _reference_time()
        with tempfile.TemporaryDirectory() as tmp:
            layers = _runtime_layers(SIZES[smallest], tmp)
            for name, call in layers.items():
                result[name] = _once(call, True) if trace else _timed(call, smallest)
    if not trace:
        result["reference_s"] = {"before": before, "after": _reference_time()}
    return result


def _run_child(mode: str, src: Path, smallest: bool, trace: bool) -> dict:
    argv = [sys.executable, __file__, "--child", mode, "--src", str(src)]
    argv += ["--smallest"] * smallest + ["--trace-memory"] * trace
    out = subprocess.run(argv, check=True, capture_output=True, text=True,
                         env={**os.environ, **ENV}, cwd=REPO)
    return json.loads(out.stdout.splitlines()[-1])  # after the CLI's summary lines


def _git_sha(tree: Path):
    """The tree's commit and whether its ``src/`` differs from it, or ``None``
    for a tree outside git (an archive export)."""
    if not (tree / ".git").exists():
        return None
    git = ["git", "-C", str(tree)]
    sha = subprocess.run([*git, "rev-parse", "--short", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run([*git, "status", "--porcelain", "--", "src"], check=True,
                           capture_output=True, text=True).stdout.strip()
    return {"sha": sha, "src_differs_from_commit": bool(dirty)}


def _openblas() -> dict:
    """OpenBLAS's version and the core type it picked, as numpy's build reports them."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "core": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            info["core"] = corename().decode()
    return info


def _machine() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def _summary(samples: list[float], minflt: list[float], peak, reference_s: float) -> dict:
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:  # the middle quartile is the median
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "n": len(samples),
            "median_ref_units": median / reference_s,
            "minflt_per_call": statistics.median(minflt), "tracemalloc_peak_kib": peak}


def _median_interval(ratios: list[float]) -> tuple[float, float, float]:
    """The order statistics ``x[j] <= x[n - 1 - j]`` of the sorted ``ratios``
    that bracket their population median with probability at least 0.95, at
    the largest such ``j``, and that probability, ``1 - 2 P(Bin(n, 1/2) <= j)``;
    the whole range and its probability when no ``j`` reaches 0.95."""
    x, n = sorted(ratios), len(ratios)
    coverage = [1 - 2 * sum(math.comb(n, i) for i in range(j + 1)) / 2**n for j in range(n // 2)]
    j = max((j for j, c in enumerate(coverage) if c >= 0.95), default=0)
    return x[j], x[n - 1 - j], coverage[j] if coverage else 0.0


def _round_ratios(baseline: dict, current: dict) -> dict:
    """Per-round ratios of the per-round medians, from each tree's ``{round: samples}``."""
    ratios = [statistics.median(current[r]) / statistics.median(baseline[r])
              for r in sorted(baseline) if r in current]
    lo, hi, coverage = _median_interval(ratios)
    resolved = coverage >= 0.95 and not lo <= 1.0 <= hi
    return {"round_ratios": ratios, "ratio_median": statistics.median(ratios),
            "ratio_ci95": [lo, hi], "ratio_ci95_coverage": coverage,
            "verdict": ("faster" if hi < 1.0 else "slower") if resolved else "not resolved"}


def measure(trees: dict, rounds: int, smallest: bool) -> tuple[dict, dict]:
    """Per tree and layer, the summary of ``rounds`` alternating rounds, and
    with two trees each layer's per-round ratios (:func:`_round_ratios`); and
    per tree, the reference load's times by round and process, and their median."""
    modes = ("setup-electronic", "setup-coldatom", "runtime")
    raw = {label: {} for label in trees}
    reference = {label: {"rounds": [{} for _ in range(rounds)]} for label in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for mode in modes:
            for label in order:
                for name, rec in _run_child(mode, trees[label]["src"], smallest, False).items():
                    if name == "version":
                        trees[label]["version"] = rec
                        continue
                    if name == "reference_s":
                        reference[label]["rounds"][r][mode] = rec
                        continue
                    entry = raw[label].setdefault(name, {"samples": [], "minflt": [], "rounds": {}})
                    entry["samples"] += rec["samples"]
                    entry["minflt"].append(rec["minflt"])
                    entry["rounds"].setdefault(r, []).extend(rec["samples"])
    peaks = {label: {} for label in trees}
    for label in trees:
        for mode in modes:
            rec = _run_child(mode, trees[label]["src"], smallest, True)
            peaks[label].update({k: v["peak_kib"] for k, v in rec.items() if k != "version"})
    for tree in reference.values():
        tree["median_s"] = statistics.median(
            t for by_mode in tree["rounds"] for rec in by_mode.values()
            for t in rec.values() if t is not None)
    layers = {}
    for name in dict.fromkeys(n for label in trees for n in raw[label]):
        layers[name] = {label: _summary(raw[label][name]["samples"], raw[label][name]["minflt"],
                                        peaks[label].get(name), reference[label]["median_s"])
                        if name in raw[label] else None for label in trees}
        if all(layers[name].get(k) for k in ("baseline", "current")):
            layers[name]["current_over_baseline"] = (layers[name]["current"]["median_s"]
                                                     / layers[name]["baseline"]["median_s"])
            layers[name].update(_round_ratios(raw["baseline"][name]["rounds"],
                                              raw["current"][name]["rounds"]))
    return layers, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="BENCH JSON file to write")
    parser.add_argument("--baseline", type=Path, help="tree whose src/ to measure beside this one")
    parser.add_argument("--baseline-sha", help="commit of --baseline, for a tree outside git")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smallest", action="store_true", help="smallest sizes, one call each")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--trace-memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.src, args.smallest, args.trace_memory)))
        return 0
    if not args.out:
        parser.error("--out is required")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = {"current": {"src": REPO / "src", "git": _git_sha(REPO)}}
    if args.baseline is not None:
        git = ({"sha": args.baseline_sha, "src_differs_from_commit": None} if args.baseline_sha
               else _git_sha(args.baseline))
        trees = {"baseline": {"src": args.baseline / "src", "git": git}, **trees}
    layers, reference = measure(trees, args.rounds, args.smallest)
    report = {
        "schema": SCHEMA,
        "machine": _machine(),
        "settings": {"rounds": args.rounds, "smallest": args.smallest, "env": ENV,
                     "budget_s_per_layer_and_round": BUDGET_S,
                     "timer": "time.perf_counter",
                     "stat": "median and quartiles of call times; per-round ratios of medians, "
                             "their median, order-statistic 95% interval and verdict"},
        "trees": {label: {k: v for k, v in tree.items() if k != "src"}
                  for label, tree in trees.items()},
        "reference": {"load": "perfbench/calibrate.py reference_s()", "trees": reference},
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
