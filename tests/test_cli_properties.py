"""Property test of the command line: any argv drawn from a grammar of valid
and invalid values exits 0, or exits 2 with a message on stderr, and never
escapes with another exception.

Valid sizes stay small (at most 20 trials, 201 spectrum sites, 10^4 zero-mode
sites); only ``spectrum`` gets site counts above the dense chain's cap, which
it must reject before allocating anything.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeteleport.cli import main

_BAD = st.sampled_from(["", "x", "1,2", "0x10", "--"])
_FINE = st.floats(0.0, 3.0).map(repr) | st.sampled_from(["1", "0.5", "0.6667"])
_EXTREME = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
                            "1.7e308", "1e200", "5e-324", "-0.0", "-1"])
_FLOATS = st.one_of(_FINE, _FINE, _EXTREME, st.floats().map(repr), _BAD)
_AMPLITUDE = (st.tuples(_FLOATS, _FLOATS).map(",".join)
              | st.sampled_from(["1", "1,2,3", "a,b", ",", "1e200,0"]))
_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
                   st.sampled_from([-1, 2**64, 10**30, -(2**64)]),
                   st.integers(-(2**70), 2**70)).map(str) | _BAD
_TRIALS = st.integers(1, 20).map(str) | st.integers(-3, 0).map(str) | _BAD
_VARIANTS = st.sampled_from(["electronic", "coldatom", "mixed"]) | st.sampled_from(
    ["", "quantum", "ELECTRONIC"])
_ODD_SITES = st.integers(1, 100).map(lambda k: str(2 * k + 1))
_SMALL_SITES = st.one_of(_ODD_SITES, _ODD_SITES, st.integers(-3, 201).map(str), _BAD)
_OVER_CAP = st.sampled_from([4003, 10**6 + 1, 10**9 + 1, 2**63 + 1, 10**30 + 1]).map(str)


@st.composite
def _unit_pair(draw):
    """A normalized (g1, g2) as two RE,IM strings."""
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
    g2 = math.sin(theta / 2)
    return f"{math.cos(theta / 2)!r},0", f"{g2 * math.cos(phi)!r},{g2 * math.sin(phi)!r}"


def _options(draw, spec):
    """``--name=value`` for each ``(name, strategy)``; one in four is left out."""
    return [f"--{name}={draw(values)}" for name, values in spec if draw(st.integers(0, 3))]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["spectrum", "zeromode", "hubbard", "teleport"]))
    if command == "hubbard":
        return [command, *_options(draw, [("e2", _FLOATS), ("lambda", _FLOATS)])]
    if command == "teleport":
        g1, g2 = draw(_unit_pair() | _unit_pair() | st.tuples(_AMPLITUDE, _AMPLITUDE))
        spec = [("variant", _VARIANTS), ("g1", st.just(g1)), ("g2", st.just(g2)),
                ("trials", _TRIALS), ("seed", _SEEDS)]
    else:
        larger = _OVER_CAP if command == "spectrum" else st.integers(202, 10**4).map(str)
        sites = st.one_of(_SMALL_SITES, _SMALL_SITES, larger)
        spec = [("sites", sites), ("t", _FLOATS), ("tprime", _FLOATS)]
    return [command, *_options(draw, spec), "--out={out}"]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["spectrum", "--sites=3", "--t=1e200", "--tprime=0.5", "--out={out}"])
@example(["spectrum", "--sites=5", "--t=1.7e308", "--tprime=1.7e308", "--out={out}"])
@example(["spectrum", "--sites=1000000001", "--out={out}"])
@example(["zeromode", "--sites=--", "--out={out}"])
@example(["teleport", "--g1=0.6,0", "--g2=0,0.8", "--variant=mixed", "--trials=20",
          "--seed=18446744073709551615", "--out={out}"])
@example(["teleport", "--variant=coldatom", "--trials=5", "--out={out}/missing/x.json"])
@example(["bogus"])
@example(["teleport", "--trials=5", "--out={out}", "extra"])
@example(["teleport", "--g2=1.7e308,1.7e308", "--out={out}"])
def test_every_argv_exits_0_or_2_with_a_message(argv):
    with tempfile.TemporaryDirectory() as d:
        code, err = _run([a.format(out=os.path.join(d, "out")) for a in argv])
    assert code == 0 or (code == 2 and err.strip()), (argv, code, err)
