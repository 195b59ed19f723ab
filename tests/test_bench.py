"""The layer benchmark in ``benchmarks/bench.py`` runs end to end at its
smallest sizes and writes every key; no timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_STATS = {"median_s", "q1_s", "q3_s", "n", "minflt_per_call", "tracemalloc_peak_kib"}


def test_bench_driver_writes_every_layer_for_both_trees(tmp_path):
    out = tmp_path / "bench.json"
    # this tree as its own baseline: both sides and their ratio are written
    subprocess.run([sys.executable, str(REPO / "benchmarks" / "bench.py"), "--smallest",
                    "--rounds", "1", "--baseline", str(REPO), "--baseline-sha", "abc1234",
                    "--out", str(out)], check=True, timeout=300, capture_output=True)
    report = json.loads(out.read_text())
    assert list(report) == ["schema", "machine", "settings", "trees", "layers"]
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
    layers = report["layers"]
    assert set(layers) == {
        "import", "warm_up/electronic", "warm_up/coldatom",
        *(f"run_trials/{v}/{g}/{n}" for v in ("electronic", "coldatom") for g in ("fixed", "haar")
          for n in (1, 100)),
        "run_trials/mixed/haar/2", "run_trials/mixed-diag/haar/2",
        "cli.main/teleport/electronic/50", "cli.main/teleport/coldatom/50",
        "cli.main/hubbard", "cli.main/spectrum/59",
        "numerical_spectrum/59", "spectrum_csv/59",
    }
    for name, layer in layers.items():
        assert set(layer) == {"baseline", "current", "current_over_baseline"}, name
        for side in ("baseline", "current"):
            assert set(layer[side]) == _STATS, (name, side)
            assert layer[side]["n"] >= 1 and layer[side]["tracemalloc_peak_kib"] > 0
