"""Command-line interface.

Subcommands: ``spectrum``, ``zeromode``, ``hubbard``, ``teleport``.  All
randomness flows from ``--seed``; repeated invocations with the same arguments
produce byte-identical output files.  Exit code 2 on usage or validation
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .protocol import SpinAmplitudes, run_trials
from .hubbard import CouplingParams, hubbard_report
from .ssh_lattice import WireParams, spectrum_csv, zeromode_density_csv


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _cmd_chain(parser, args) -> int:
    spectrum = args.command == "spectrum"
    try:
        params = WireParams(args.sites, args.t, args.tprime)
        # spectrum: over the dense size cap, or levels past the float range
        text = spectrum_csv(params) if spectrum else zeromode_density_csv(params)
    except ValueError as exc:
        parser.error(str(exc))
    _write_text(args.out, text)
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
    norm = abs(g1) * abs(g1) + abs(g2) * abs(g2)  # inf, not OverflowError, when huge
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
    _write_text(args.out, report.to_json())
    print(
        f"variant={args.variant} trials={report.trials} seed={report.seed} "
        f"min_fidelity={report.min_fidelity:.15g} mean_rounds={report.mean_rounds:.4g}"
    )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeteleport",
        description="Edge modes of an odd-site alternating-bond wire and "
                    "spin teleportation between wires.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_wire_args(p):
        p.add_argument("--sites", type=int, required=True, help="number of sites (odd)")
        p.add_argument("--t", type=float, default=1.0, help="strong bond amplitude")
        p.add_argument("--tprime", type=float, default=0.5, help="weak bond amplitude")
        p.add_argument("--out", required=True, help="output CSV path")

    p_spec = sub.add_parser("spectrum", help="closed-form vs numerical spectrum as CSV")
    add_wire_args(p_spec)

    p_zero = sub.add_parser("zeromode", help="zero-mode probability density as CSV")
    add_wire_args(p_zero)

    p_hub = sub.add_parser("hubbard", help="edge-coupling ground state report as JSON")
    p_hub.add_argument("--e2", type=float, required=True, help="Coulomb scale (> 0)")
    p_hub.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="hopping scale (>= 0)")

    p_tel = sub.add_parser("teleport", help="run seeded teleportation trials")
    p_tel.add_argument("--variant", choices=("electronic", "coldatom", "mixed"),
                       default="electronic")
    p_tel.add_argument("--g1", default="1,0", help="spin-up amplitude as RE,IM")
    p_tel.add_argument("--g2", default="0,0", help="spin-down amplitude as RE,IM")
    p_tel.add_argument("--trials", type=int, default=1000)
    p_tel.add_argument("--seed", type=int, default=0)
    p_tel.add_argument("--out", required=True, help="output JSON path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
