"""Every program name the benchmark in ``perfbench/`` reads must still resolve.

The benchmark wraps its trace targets by name and records
``edgeteleport.default_backend()`` on every run, so a renamed or removed
name would fail its runs while the rest of this suite passes.
"""

import importlib
import inspect
from pathlib import Path

import edgeteleport
from edgeteleport import cli, fock, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("workloads").trace_targets()
    assert targets
    for span, owner, attr, _ in targets:
        # getattr_static: the lookup the tracer's wrapper replaces, with no
        # descriptor run; raises AttributeError for a missing name
        assert callable(inspect.getattr_static(owner, attr)), span


def test_names_the_workloads_and_provenance_read_resolve():
    assert isinstance(edgeteleport.default_backend(), str)
    assert isinstance(edgeteleport.__version__, str)
    for owner, attr in [(protocol, "run_trials"), (protocol, "warm_up"),
                        (protocol, "SpinAmplitudes"), (protocol, "neutral_spin_zero_basis"),
                        (fock, "DensityMatrix"), (cli, "main")]:
        assert callable(inspect.getattr_static(owner, attr)), attr
    assert len(protocol.BRANCHES) == 4
    assert fock.AB_MODES.dim == 16


def test_no_two_trace_targets_are_one_object(monkeypatch):
    # the tracer rebinds every module attribute that is a target: two target
    # names for one function would wrap it twice, and count each call twice
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("workloads").trace_targets()
    objects = [inspect.getattr_static(owner, attr) for _, owner, attr, _ in targets]
    assert len({id(obj) for obj in objects}) == len(objects)
