"""The layer benchmark in ``benchmarks/bench.py`` runs end to end at its
smallest sizes and writes every key; no timing is asserted."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_STATS = {"median_s", "q1_s", "q3_s", "n", "median_ref_units", "minflt_per_call",
          "tracemalloc_peak_kib"}
_RATIOS = {"round_ratios", "ratio_median", "ratio_ci95", "ratio_ci95_coverage", "verdict"}


def _bench():
    spec = importlib.util.spec_from_file_location("bench", REPO / "benchmarks" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_driver_writes_every_layer_for_both_trees(tmp_path):
    out = tmp_path / "bench.json"
    # this tree as its own baseline: both sides and their ratio are written
    subprocess.run([sys.executable, str(REPO / "benchmarks" / "bench.py"), "--smallest",
                    "--rounds", "1", "--baseline", str(REPO), "--baseline-sha", "abc1234",
                    "--out", str(out)], check=True, timeout=300, capture_output=True)
    report = json.loads(out.read_text())
    assert list(report) == ["schema", "machine", "settings", "trees", "reference", "layers"]
    assert report["schema"] == "edgeteleport-bench/1"
    machine = report["machine"]
    assert set(machine) == {"platform", "machine", "cpu_model", "cpu_count", "python", "numpy",
                            "openblas", "numba_present"}
    assert set(machine["openblas"]) == {"name", "version", "core"}
    assert isinstance(machine["numba_present"], bool)
    assert report["settings"]["env"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert list(report["trees"]) == ["baseline", "current"]
    assert report["trees"]["baseline"]["git"] == {"sha": "abc1234",
                                                  "src_differs_from_commit": None}
    assert all(tree["version"] for tree in report["trees"].values())
    # the reference load, timed in every measuring process of each tree and round
    assert report["reference"]["load"] == "perfbench/calibrate.py reference_s()"
    assert list(report["reference"]["trees"]) == ["baseline", "current"]
    for tree in report["reference"]["trees"].values():
        (by_process,) = tree["rounds"]
        assert list(by_process) == ["setup-electronic", "setup-coldatom", "runtime"]
        for process, times in by_process.items():
            assert set(times) == {"before", "after"} and times["after"] > 0
            assert (times["before"] is None) == process.startswith("setup-")
        assert tree["median_s"] > 0
    layers = report["layers"]
    assert set(layers) == {
        "import", "warm_up/electronic", "warm_up/coldatom",
        *(f"run_trials/{v}/{g}/{n}" for v in ("electronic", "coldatom") for g in ("fixed", "haar")
          for n in (1, 100)),
        "run_trials/mixed/haar/2", "run_trials/mixed-diag/haar/2",
        "cli.main/teleport/electronic/50", "cli.main/teleport/coldatom/50",
        "cli.main/hubbard", "cli.main/spectrum/59", "cli.main/zeromode/515",
        "numerical_spectrum/59", "spectrum_csv/59", "zeromode_density_csv/1001",
    }
    for name, layer in layers.items():
        assert set(layer) == {"baseline", "current", "current_over_baseline", *_RATIOS}, name
        for side in ("baseline", "current"):
            assert set(layer[side]) == _STATS, (name, side)
            assert layer[side]["n"] >= 1 and layer[side]["tracemalloc_peak_kib"] > 0
            assert layer[side]["median_ref_units"] == (
                layer[side]["median_s"] / report["reference"]["trees"][side]["median_s"])
        # one round: one ratio, which is its own median and interval, and no verdict
        (ratio,) = layer["round_ratios"]
        assert layer["ratio_median"] == ratio and layer["ratio_ci95"] == [ratio, ratio]
        assert layer["ratio_ci95_coverage"] == 0.0 and layer["verdict"] == "not resolved"


@pytest.mark.parametrize("n, j, coverage", [
    (1, 0, 0.0), (5, 0, 1 - 2 / 2**5), (6, 0, 1 - 2 / 2**6), (10, 1, 1 - 2 * 11 / 2**10),
    (15, 3, 1 - 2 * 576 / 2**15),
])
def test_median_interval_takes_the_binomial_order_statistics(n, j, coverage):
    # the largest j whose [x_j, x_(n-1-j)] covers the median with probability
    # 1 - 2 P(Bin(n, 1/2) <= j) >= 0.95; five rounds cannot reach 0.95
    x = [10.0 + k for k in range(n)][::-1]
    assert _bench()._median_interval(x) == (10.0 + j, 10.0 + n - 1 - j, coverage)


@pytest.mark.parametrize("current, verdict", [
    ([0.8, 0.9, 0.85, 0.95, 0.7, 0.9], "faster"),
    ([1.2, 1.1, 1.3, 1.05, 1.4, 1.2], "slower"),
    ([0.8, 0.9, 1.05, 0.95, 0.7, 0.9], "not resolved"),  # the interval holds 1
    ([0.8, 0.9, 0.85, 0.95, 0.7], "not resolved"),  # five rounds: coverage 0.94
])
def test_round_ratios_give_a_verdict_only_when_the_interval_excludes_one(current, verdict):
    # each round's ratio divides the two trees' medians of that round, so an
    # outlying call inside a round (50.0 in round 0) does not move it
    baseline = {r: [1.0, 1.0, 50.0] if r == 0 else [1.0] for r in range(len(current))}
    rec = _bench()._round_ratios(baseline, {r: [c] for r, c in enumerate(current)})
    assert rec["round_ratios"] == current and rec["verdict"] == verdict
