"""Command-line interface.

Subcommands: ``spectrum``, ``zeromode``, ``hubbard``, ``teleport``.  All
randomness flows from ``--seed``; repeated invocations with the same arguments
produce byte-identical output files.  Exit code 2 on usage or validation
errors.

When the first argument names a subcommand, :func:`main` first reads the rest
in one plain pass over that subcommand's options, as ``add_argument`` declared
them: every word an exact ``--name=value``, or ``--name`` and a value that
does not start with ``-``, with no empty or ``--`` value, each value converted
by its ``type`` and within its ``choices``, and every required option given.
A repeated option keeps its last value and a missing one takes the default
argparse gives it.  Any other argv (help, an abbreviation, an unknown word, a
negative number as its own word, ``--``, a bad value, a missing option) goes
to argparse unchanged: that subcommand's ``parse_known_args``, with leftovers
reported through the top parser, or the top parser's ``parse_args`` when no
subcommand comes first, so each message and usage line is the one
``parse_args`` gives.  The teleport report and the ``hubbard`` JSON both have
the bytes of ``json.dumps(..., indent=2)``: the report is filled into one
template, and ``hubbard`` is ``json.dumps`` itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from .protocol import SpinAmplitudes, _modulus, run_trials
from .hubbard import CouplingParams, hubbard_report
from .ssh_lattice import WireParams, spectrum_csv, zeromode_density_csv


def _write_text(parser, path: str, text: str) -> None:
    """Write ``text`` over ``path`` in place, as truncating to zero first
    makes the filesystem free the file's blocks and allocate them again."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode())
            if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null, a pipe or a tty
                fh.truncate()
    except OSError as exc:
        parser.error(f"cannot write --out {path}: {exc.strerror}")


def _cmd_chain(parser, args) -> int:
    spectrum = args.command == "spectrum"
    try:
        params = WireParams(args.sites, args.t, args.tprime)
        # spectrum: over the dense size cap, or levels past the float range
        text = spectrum_csv(params) if spectrum else zeromode_density_csv(params)
    except ValueError as exc:
        parser.error(str(exc))
    _write_text(parser, args.out, text)
    print(f"wrote {params.num_sites} {'levels' if spectrum else 'site densities'} to {args.out}")
    return 0


def _cmd_hubbard(parser, args) -> int:
    if args.e2 <= 0:
        parser.error("e2 must be > 0")
    if args.lam < 0:
        parser.error("lambda must be >= 0")
    try:
        params = CouplingParams(args.e2, args.lam)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        # strict JSON: a non-finite energy is an error, never "-Infinity"
        text = json.dumps(hubbard_report(params), indent=2, allow_nan=False)
    except (ArithmeticError, ValueError) as exc:
        parser.error(f"e2={args.e2!r}, lambda={args.lam!r} give no finite report: {exc}")
    print(text)
    return 0


def _parse_complex(parser, text: str, name: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        parser.error(f"{name} must be given as RE,IM")


def _cmd_teleport(parser, args) -> int:
    g1 = _parse_complex(parser, args.g1, "--g1")
    g2 = _parse_complex(parser, args.g2, "--g2")
    a1, a2 = _modulus(g1), _modulus(g2)
    norm = a1 * a1 + a2 * a2  # inf, not OverflowError, when huge
    if abs(norm - 1.0) > 1e-6:
        parser.error(f"|g1|^2 + |g2|^2 = {norm:.6g}; amplitudes must be normalized")
    try:
        g = SpinAmplitudes.normalized(g1, g2)
    except ValueError as exc:
        parser.error(f"--g1/--g2: {exc}")
    try:
        report = run_trials(g, args.variant, args.trials, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    _write_text(parser, args.out, report.to_json())
    print(
        f"variant={args.variant} trials={report.trials} seed={report.seed} "
        f"min_fidelity={report.min_fidelity:.15g} mean_rounds={report.mean_rounds:.4g}"
    )
    return 0


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, tuple[argparse.ArgumentParser, dict[str, argparse.Action]]]]:
    """The top parser, and by name each subcommand's parser with its options
    by option string, the actions its ``add_argument`` calls returned."""
    parser = argparse.ArgumentParser(
        prog="edgeteleport",
        description="Edge modes of an odd-site alternating-bond wire and "
                    "spin teleportation between wires.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_wire_args(p):
        return (p.add_argument("--sites", type=int, required=True, help="number of sites (odd)"),
                p.add_argument("--t", type=float, default=1.0, help="strong bond amplitude"),
                p.add_argument("--tprime", type=float, default=0.5, help="weak bond amplitude"),
                p.add_argument("--out", required=True, help="output CSV path"))

    p_spec = sub.add_parser("spectrum", help="closed-form vs numerical spectrum as CSV")
    p_zero = sub.add_parser("zeromode", help="zero-mode probability density as CSV")
    p_hub = sub.add_parser("hubbard", help="edge-coupling ground state report as JSON")
    p_tel = sub.add_parser("teleport", help="run seeded teleportation trials")
    commands = {
        "spectrum": (p_spec, add_wire_args(p_spec)),
        "zeromode": (p_zero, add_wire_args(p_zero)),
        "hubbard": (p_hub, (
            p_hub.add_argument("--e2", type=float, required=True, help="Coulomb scale (> 0)"),
            p_hub.add_argument("--lambda", dest="lam", type=float, required=True,
                               help="hopping scale (>= 0)"))),
        "teleport": (p_tel, (
            p_tel.add_argument("--variant", choices=("electronic", "coldatom", "mixed"),
                               default="electronic"),
            p_tel.add_argument("--g1", default="1,0", help="spin-up amplitude as RE,IM"),
            p_tel.add_argument("--g2", default="0,0", help="spin-down amplitude as RE,IM"),
            p_tel.add_argument("--trials", type=int, default=1000),
            p_tel.add_argument("--seed", type=int, default=0),
            p_tel.add_argument("--out", required=True, help="output JSON path"))),
    }
    return parser, {name: (p, {s: a for a in actions for s in a.option_strings})
                    for name, (p, actions) in commands.items()}


def _plain_args(options: dict[str, argparse.Action], words) -> argparse.Namespace | None:
    """The namespace a subcommand parser's ``parse_known_args(words)`` gives,
    with no leftovers, when ``words`` are plain options (module docstring);
    ``None`` for any other ``words``, which argparse parses instead."""
    values, words = {}, iter(words)
    try:
        for word in words:
            name, eq, value = word.partition("=")
            if not eq:
                value = next(words, "-")  # a last "--name" has no value: refused
                if value.startswith("-"):
                    return None
            action = options.get(name)
            if action is None or not value or value == "--":
                return None
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        for action in options.values():
            if action.dest in values:
                continue
            if action.required:
                return None
            values[action.dest] = action.default  # no typed option has a str default
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in commands:
        subparser, options = commands[argv[0]]
        args = _plain_args(options, argv[1:])
        if args is None:
            args, extra = subparser.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads "--opt=--" as an empty list
        parser.error("an option is missing its value")
    handler = {
        "spectrum": _cmd_chain,
        "zeromode": _cmd_chain,
        "hubbard": _cmd_hubbard,
        "teleport": _cmd_teleport,
    }[args.command]
    return handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
