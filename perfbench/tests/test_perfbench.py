"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import calibrate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_run_offers_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _comparable(wl, inputs):
    if isinstance(wl, workloads.MixedDM):
        return [(s, w) for s, w, _ in inputs]
    return inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    first = _comparable(wl, wl.inputs(7, 0))
    assert first == _comparable(wl, wl.inputs(7, 0))
    assert first != _comparable(wl, wl.inputs(8, 0))


def test_passes_of_one_run_differ_except_the_fixed_chain_ladder(tmp_path):
    for name, wl_cls in workloads.WORKLOADS.items():
        wl = wl_cls(str(tmp_path))
        same = _comparable(wl, wl.inputs(7, 0)) == _comparable(wl, wl.inputs(7, 1))
        assert same == (name == "chain-sweep")


def test_self_time_on_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("c", 15, 25, 1, 0),
        ("b", 50, 90, 0, 0),
        ("root", 200, 230, -1, 1),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 40, 30]
    totals, top = tracing.layer_totals(spans)
    assert totals == {"root": [2, 60], "a": [1, 20], "c": [1, 10], "b": [1, 40]}
    assert top == 130
    assert sum(own for _, own in totals.values()) == top


def test_tracer_rebinds_every_importer_and_restores():
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def leaf(x):
        return x + 1

    low.leaf = leaf
    high.leaf = leaf  # as after ``from .low import leaf``
    high.top = lambda x: high.leaf(x) * 2
    saved = dict(sys.modules)
    sys.modules.update({"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high})
    try:
        tr = tracing.Tracer()
        tr.install([("low.leaf", low, "leaf", False), ("high.top", high, "top", True)], "fakepkg")
        tr.call_id = 3
        assert high.top(1) == 4
        tr.uninstall()
    finally:
        sys.modules.clear()
        sys.modules.update(saved)
    assert low.leaf is leaf and high.leaf is leaf
    (n_top, _, _, p_top, c_top), (n_leaf, _, _, p_leaf, _) = tr.spans
    assert (n_top, p_top, c_top) == ("high.top", -1, 3)
    assert (n_leaf, p_leaf) == ("low.leaf", 0)
    assert set(tr.cpu_ns) == {"high.top"}


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_interpolates_like_numpy():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(xs, 50) == 2.5
    assert harness.percentile(xs, 90) == pytest.approx(3.7)
    assert harness.percentile([5.0], 90) == 5.0


class _Flaky:
    """Two passes of four calls; every third call raises, one check fails."""

    def __init__(self):
        self.seen = []

    def inputs(self, seed, p):
        return [(p, i) for i in range(4)]

    def call(self, inp):
        self.seen.append(inp)
        if len(self.seen) % 3 == 0:
            raise RuntimeError("boom")
        return inp

    def check(self, inp, out, pool):
        if out == (1, 3):
            raise AssertionError("bad output")
        return 10


def test_failing_calls_are_counted_and_the_run_goes_on():
    wl = _Flaky()
    res = harness.run_loop(wl, seed=0, budget_s=1e9, max_passes=2)
    assert len(wl.seen) == 8
    assert (res.attempted, res.failed, res.passes) == (8, 3, 2)
    assert res.error_rate == 3 / 8
    assert res.trials == 50
    assert res.pass_trials == [30, 20]
    assert len(res.latencies_s) == 5
    assert "RuntimeError: boom" in res.errors[0]


def test_loop_runs_until_min_calls():
    res = harness.run_loop(_Flaky(), seed=0, budget_s=0.0, min_calls=9)
    assert (res.attempted, res.passes) == (12, 3)


def test_single_passes_merge_into_one_run():
    wl = _Flaky()
    parts = [harness.run_loop(wl, seed=0, budget_s=0.0, max_passes=1, first_pass=p)
             for p in (0, 1)]
    assert wl.seen == [(p, i) for p in (0, 1) for i in range(4)]
    res = harness.merge(parts)
    assert (res.attempted, res.failed, res.passes, res.trials) == (8, 3, 2, 50)
    assert res.pass_trials == [30, 20]
    assert len(res.latencies_s) == 5 and len(res.errors) == 3


def test_probe_runs_before_the_first_pass_and_after_each():
    ticks = iter(range(100))
    res = harness.run_loop(_Flaky(), seed=0, budget_s=1e9, max_passes=3,
                           probe=lambda: float(next(ticks)))
    assert res.refs_s == [0.0, 1.0, 2.0, 3.0]
    assert harness.run_loop(_Flaky(), seed=0, budget_s=1e9, max_passes=1).refs_s == []


def test_speed_factor_scales_to_the_nominal_reference():
    assert calibrate.speed_factor([2.0, 9.0, 1.0], nominal_s=1.0) == 0.5 ** calibrate.SPEED_EXPONENT
    assert calibrate.speed_factor([1.0], nominal_s=1.0) == 1.0
    assert calibrate.reference_s(repeats=3) > 0.0


def test_cli_usage_error_is_a_failed_call_not_an_exit(tmp_path, capsys):
    wl = workloads.ColdatomScan(str(tmp_path))
    argv = ["teleport", "--g1", "not-a-number", "--out", str(tmp_path / "x.json")]
    out = wl.call(argv)
    assert out[0] == 2
    with pytest.raises(workloads.CheckFailed):
        wl.check(argv, out, pool=True)
