"""End-to-end and per-layer benchmark of edgeteleport.

    python3 perfbench/run.py --workload electronic-haar --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` follows each untraced pass with a replay of it in which every
public layer function is wrapped in spans, and reports per-layer metrics per
pass.  ``--workload all`` runs each workload in its own fresh process.

Standard output is a table of every metric with unit and sample count; its
last line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A result file with provenance goes to ``perfbench/out/results/``.  The
program is imported from ``src/`` of the checkout that holds this file, and
nowhere else; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS thread, set before numpy loads and inherited by the set-up probes.
#: With two, OpenBLAS keeps a second thread spinning beside every small
#: 64x64 product, so a run occupies both vCPUs of a 2-core machine and its
#: time follows the host's other load rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
from harness import merge, pass_rates, percentile, run_loop, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("electronic-haar", "coldatom-scan", "mixed-dm", "chain-sweep")

#: Fresh processes whose median is ``setup_s``.  Some run before the timed
#: loop and the rest after it, so that a slow spell of the machine at one end
#: of the run does not decide the median.
SETUP_STARTS = (4, 3)
#: Calls a run makes at least, so that p90 has ten samples beyond it.
MIN_CALLS = 100
PROBE_TIMEOUT_S = 120


def fail(msg: str, code: int = 2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path.name}: {exc}")


def import_program():
    """The checkout's own ``edgeteleport``, never an installed copy."""
    if not (SRC / "edgeteleport" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'edgeteleport'}")
    sys.path.insert(0, str(SRC))
    import edgeteleport

    if not Path(edgeteleport.__file__).resolve().is_relative_to(SRC):
        fail(f"imported {edgeteleport.__file__}, not the checkout's copy")
    return edgeteleport


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(program, args) -> dict:
    import numpy

    return {
        "edgeteleport_version": program.__version__,
        "edgeteleport_file": program.__file__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "default_backend": program.default_backend(),
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup(workload: str, work_dir: Path, starts: int) -> list[float]:
    """``setup_s`` of ``starts`` fresh processes, one after another."""
    samples = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), "--workload", workload,
             "--work-dir", str(work_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", code=1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def determinism_failure(wl, seed: int) -> str | None:
    """Repeat the run's first call with the same seed; outputs must be byte-identical."""
    inp = wl.inputs(seed, 0)[0]
    outs = [wl.fingerprint(inp, wl.call(inp)) for _ in range(2)]
    return None if outs[0] == outs[1] else "repeated call with the same seed changed its output"


def end_to_end(wl, args, work_dir: Path) -> tuple[dict, object]:
    setup = measure_setup(args.workload, work_dir, SETUP_STARTS[0])
    wl.warm_up()
    loop = run_loop(wl, args.seed, args.seconds, min_calls=MIN_CALLS, probe=calibrate.reference_s)
    setup += measure_setup(args.workload, work_dir, SETUP_STARTS[1])
    n_calls = len(loop.latencies_s)
    lat_ms = [x * 1e3 for x in loop.latencies_s] or [float("nan")]
    # Speed-normalised copies: every time of the run times its speed factor.
    # The tail is not scaled: in electronic-haar runs in a fast spell, p50
    # fell to 0.6 of its value and p90 only to 0.84, since the calls in the
    # tail are the ones held up by pauses that take as long in either spell.
    factor = calibrate.speed_factor(loop.refs_s) if wl.speed_normalised else 1.0
    wall = statistics.median(loop.pass_walls_s)
    rate = statistics.median(pass_rates(loop))
    p50 = percentile(lat_ms, 50)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), "fresh starts"),
        "wall_s": (wall, loop.passes, "passes"),
        "trials_per_s": (rate, loop.passes, "passes"),
        "call_p50_ms": (p50, n_calls, "calls"),
        "call_p90_ms": (percentile(lat_ms, 90), n_calls, "calls"),
        "norm_wall_s": (wall * factor, loop.passes, "passes"),
        "norm_trials_per_s": (rate / factor, loop.passes, "passes"),
        "norm_call_p50_ms": (p50 * factor, n_calls, "calls"),
        "machine_ref_ms": (statistics.median(loop.refs_s) * 1e3, len(loop.refs_s),
                           "reference blocks"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "process"),
        "error_rate": (loop.error_rate, loop.attempted, "calls"),
    }
    tail = tail_percentile(n_calls)
    if tail is not None:
        metrics[f"call_tail_p{tail:g}_ms"] = (percentile(lat_ms, tail), n_calls, "calls")
    return metrics, loop


def traced(wl, args, workloads) -> tuple[dict, list, tuple]:
    from tracing import Tracer, layer_totals

    # A teleport workload's warm-up is protocol.warm_up(variant); chain-sweep
    # never calls it, so its protocol.warm_up.s is 0.
    t0 = time.perf_counter()
    wl.warm_up()
    warm_s = time.perf_counter() - t0 if hasattr(wl, "variant") else 0.0

    # Each untraced pass is followed by its traced replay, so that both see
    # the same machine speed and their ratio is the tracing overhead.
    tracer = Tracer()
    targets = workloads.trace_targets()
    plain, replays = [], []
    traced_bytes = 0
    start = time.perf_counter()
    while True:
        p = len(plain)
        plain.append(run_loop(wl, args.seed, 0.0, max_passes=1, first_pass=p))
        calls_before = sum(r.attempted for r in replays)
        bytes_before = wl.bytes_written
        tracer.install(targets, "edgeteleport")
        try:
            replays.append(run_loop(
                wl, args.seed, 0.0, max_passes=1, first_pass=p, pool=False,
                before_call=lambda i: setattr(tracer, "call_id", calls_before + i)))
        finally:
            tracer.uninstall()
        traced_bytes += wl.bytes_written - bytes_before
        pair_s = sum(r.pass_walls_s[0] for r in plain + replays) / len(plain)
        if time.perf_counter() - start + pair_s > args.seconds:
            break
    plain, loop = merge(plain), merge(replays)
    totals, top_ns = layer_totals(tracer.spans)

    n = loop.passes
    wall_ns = round(sum(loop.pass_walls_s) * 1e9)
    metrics = {}
    for name, _, _, _ in targets:
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls / n, n, "passes")
        metrics[f"{name}.self_s"] = (self_ns / 1e9 / n, n, "passes")
    metrics["ssh_lattice.numerical_spectrum.cpu_s"] = (
        tracer.cpu_ns.get("ssh_lattice.numerical_spectrum", 0) / 1e9 / n, n, "passes")
    metrics["protocol.warm_up.s"] = (warm_s, 1, "first call")
    class_calls = sum(totals.get(k, (0, 0))[0]
                      for k in ("measure.measure_spin_class", "measure.measure_spin_class_dm"))
    metrics["measure.class_success_ratio"] = (
        loop.trials / class_calls if class_calls else 0.0, class_calls, "class measurements")
    metrics["cli.bytes_written"] = (traced_bytes / n, n, "passes")
    metrics["trace.wall_s"] = (wall_ns / 1e9 / n, n, "passes")
    metrics["trace.untraced_residual_s"] = ((wall_ns - top_ns) / 1e9 / n, n, "passes")
    metrics["trace_overhead_frac"] = (
        sum(loop.pass_walls_s) / sum(plain.pass_walls_s) - 1.0, n, "passes")

    problems = []
    if sum(self_ns for _, self_ns in totals.values()) != top_ns:
        problems.append("span self times do not add up to the top-level span time")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "results" / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    return metrics, problems, (plain, loop)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_table(args, metrics: dict, units: dict, checks: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  {'metric':<44} {'value':>14}  {'unit':<8} samples")
    for name, (value, n, what) in metrics.items():
        unit = units.get(name, "count" if name.endswith(".calls") else "")
        print(f"  {name:<44} {value:>14.6g}  {unit:<8} {n} {what}")
    for line in checks:
        print(f"  check: {line}")


def run_one(args, spec: dict) -> int:
    program = import_program()
    import workloads

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](str(work_dir))
        problems = []
        if args.trace:
            metrics, problems, loops = traced(wl, args, workloads)
            wanted = spec["per_layer"]
        else:
            metrics, loop = end_to_end(wl, args, work_dir)
            loops = (loop,)
            wanted = spec["end_to_end"]
        problems += [f"pooled: {msg}" for msg in wl.pooled_failures()]
        det = determinism_failure(wl, args.seed)
        if det:
            problems.append(det)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    errors = [e for lp in loops for e in lp.errors]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}", code=1)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="1", wall_s="s", trials_per_s="1/s", call_p50_ms="ms",
                 call_p90_ms="ms", machine_ref_ms="ms")
    checks = [f"{attempted - failed} of {attempted} calls passed their checks"]
    checks += errors + problems
    if not problems:
        checks.append("pooled rates and byte-identical rerun: ok")
    print_table(args, metrics, units, checks)

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance(program, args), checks=checks,
                  samples={k: {"value": v, "n": n, "of": what}
                           for k, (v, n, what) in metrics.items()})
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with code {proc.returncode}", code=proc.returncode or 1)
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, val in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
