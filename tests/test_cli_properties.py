"""Property tests of the command line.

Any argv drawn from a grammar of valid and invalid values exits 0, or exits 2
with a message on stderr, and never escapes with another exception.  Valid
sizes stay small (at most 20 trials, 201 spectrum sites, 10^4 zero-mode
sites); only ``spectrum`` gets site counts above the dense chain's cap, which
it must reject before allocating anything.

The plain one-pass parse in front of argparse changes nothing: on argvs that
mix exact and abbreviated names, both option forms, values that start with
``-``, ``--``, empty values, repeats, unknown words and ``-h``, a namespace it
returns is the one argparse gives, and every run has the exit code, output
and file bytes of a run that goes through argparse alone.
"""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeteleport import cli
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


# Per command, each option's values: plain ones first, then ones argparse
# reads differently or rejects ("{out}" is a path in a fresh directory).
_OPTION_VALUES = {
    "spectrum": {"--sites": (["3", "5", "59"], ["-1", "4", "x", "", "--", "3.0"]),
                 "--t": (["1", "0.5", "2e0"], ["-0.5", "nan", "x", "", "--"]),
                 "--tprime": (["0.5", "0.25"], ["-1", "inf", "", "--"]),
                 "--out": (["{out}"], ["{out}/missing/x.csv", "", "--"])},
    "hubbard": {"--e2": (["1", "2.5"], ["-1", "0", "nan", "x", "", "--"]),
                "--lambda": (["0.1", "0"], ["-0.1", "1.7e308", "", "--"])},
    "teleport": {"--variant": (["electronic", "coldatom", "mixed"], ["quantum", "", "--"]),
                 "--g1": (["1,0", "0.6,0", "0,0.6"], ["-0.6,0", "1", "", "--"]),
                 "--g2": (["0,0", "0,0.8", "0.8,0"], ["0,-0.8", "-0.8,0", "a,b", "", "--"]),
                 "--trials": (["1", "3", "5"], ["-1", "0", "x", "", "--"]),
                 "--seed": (["0", "7", "18446744073709551615"], ["-1", "x", "", "--"]),
                 "--out": (["{out}"], ["{out}/missing/x.json", "", "--"])},
}
_OPTION_VALUES["zeromode"] = _OPTION_VALUES["spectrum"]
# Names that are not an option string but reach one, or several.
_ABBREVIATIONS = {"spectrum": {"--si": "--sites", "--tp": "--tprime", "--o": "--out"},
                  "hubbard": {"--e": "--e2", "--lam": "--lambda"},
                  "teleport": {"--tri": "--trials", "--var": "--variant", "--s": "--seed",
                               "--g": "--g1", "--ou": "--out"}}
_ABBREVIATIONS["zeromode"] = _ABBREVIATIONS["spectrum"]
_STRAY = st.sampled_from(["-h", "--help", "--bogus", "x", "--", "-1", "", "-", "--out"])


@st.composite
def _option_words(draw, command):
    """One option's words: an exact or abbreviated name, mostly a plain value,
    in the ``=`` form or as two words."""
    options = _OPTION_VALUES[command]
    option = draw(st.sampled_from(sorted(options)))
    name = option
    if not draw(st.integers(0, 7)):
        name = draw(st.sampled_from([k for k, v in _ABBREVIATIONS[command].items()
                                     if v == option] or [option]))
    plain, other = options[option]
    value = draw(st.sampled_from(plain) if draw(st.integers(0, 7)) else st.sampled_from(other))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _words(draw, command):
    """An option's words, or one in eight times a stray word."""
    return draw(_option_words(command)) if draw(st.integers(0, 7)) else [draw(_STRAY)]


@st.composite
def _mixed_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTION_VALUES)))
    groups = draw(st.lists(_words(command), max_size=6))
    # the required options, plainly, in most draws
    for option, (plain, _) in _OPTION_VALUES[command].items():
        if option in ("--sites", "--out", "--e2", "--lambda") and draw(st.integers(0, 4)):
            groups.append([option, plain[0]])
    return [command, *(w for group in draw(st.permutations(groups)) for w in group)]


def _outcome(argv, directory):
    """Exit code, stdout, stderr and the ``{out}`` file's bytes of ``main(argv)``,
    run in ``directory`` so that no relative ``--out`` lands elsewhere."""
    out_path = os.path.join(directory, "out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main([a.replace("{out}", out_path) for a in argv])
        except SystemExit as exc:
            code = exc.code
    written = None
    if os.path.isfile(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
        os.remove(out_path)
    return code, stdout.getvalue(), stderr.getvalue(), written


def _fields(namespace):
    """A namespace's values by name, as reprs: NaN equals NaN, -0.0 is not 0.0."""
    return {k: repr(v) for k, v in vars(namespace).items()}


@settings(max_examples=300, deadline=None)
@given(_mixed_argv())
@example(["teleport", "--g1=--", "--out={out}"])
@example(["teleport", "--trials", "5", "--out=--"])
@example(["teleport", "--seed", "-1", "--out", "{out}"])
@example(["teleport", "--seed=-1", "--g2=-0.8,0", "--g1=0.6,0", "--out={out}"])
@example(["teleport", "--g1", "-0.6,0", "--out", "{out}"])
@example(["teleport", "--out", "-h"])
@example(["teleport", "--variant", "quantum", "--out", "{out}"])
@example(["teleport", "--tri", "5", "--out", "{out}"])
@example(["teleport", "--trials=x", "--trials=5", "--out={out}"])
@example(["teleport", "--out", "{out}", "--out", "--"])
@example(["hubbard", "--e2=1", "--lambda=0.1", "--e2", "2"])
@example(["spectrum", "--sites", "3", "--out", "{out}", "-h"])
@example(["zeromode", "--sites=3", "--out="])
def test_plain_parse_gives_what_argparse_gives(argv):
    _, commands = cli._parsers()
    subparser, options = commands[argv[0]]
    with tempfile.TemporaryDirectory() as d:
        words = [a.replace("{out}", os.path.join(d, "out")) for a in argv[1:]]
        plain = cli._plain_args(options, words)
        if plain is not None:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    known = subparser.parse_known_args(words)
                except SystemExit:
                    raise AssertionError(f"plain parse took {argv}, argparse: {err.getvalue()}")
            assert (_fields(plain), []) == (_fields(known[0]), known[1]), argv
        got = _outcome(argv, d)
        with mock.patch.object(cli, "_plain_args", lambda options, words: None):
            assert _outcome(argv, d) == got, argv
