"""The four workloads: inputs made from the seed, one call each, its checks.

Every workload is a closed loop with one client in one process.  Inputs of
pass ``p`` depend only on ``(seed, p)``.  Checks test physics invariants,
not report bytes, so they survive a change of random-stream scheme.

Importing this module imports the program, so put its ``src`` directory on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from edgeteleport import cli, fock, gates, hubbard, measure, protocol, relax, ssh_lattice
from edgeteleport import _kernels

from harness import binomial_ok

FIDELITY_FLOOR = 1.0 - 1e-12

#: Restart rounds whose survival P(rounds > k) = 2^-k is checked.
ROUND_LAW_KS = range(1, 7)


class CheckFailed(AssertionError):
    """An output broke an invariant."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in-process: its exit code and captured standard output.

    A usage error exits through ``SystemExit``; it becomes the exit code, so
    the call counts as failed instead of ending the run.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _call_seeds(seed: int, p: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, p])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


class _TeleportChecks:
    """Per-report invariants, plus branch frequencies pooled over the run."""

    variant = ""
    trials_per_call = 1
    #: Scale the end-to-end times by the run's speed factor (``calibrate.py``).
    speed_normalised = True

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.bytes_written = 0
        self.branch_counts = np.zeros(len(protocol.BRANCHES), dtype=np.int64)
        self.rounds: dict[int, int] = {}

    def warm_up(self) -> None:
        protocol.warm_up(self.variant)

    def _check_report(self, rep: dict, pool: bool) -> int:
        n = self.trials_per_call
        _require(rep["trials"] == n, f"trials {rep['trials']} != {n}")
        _require(rep["min_fidelity"] >= FIDELITY_FLOOR, f"min_fidelity {rep['min_fidelity']!r}")
        counts = [rep["branch_counts"][f"{j:g},{m:g}"] for j, m in protocol.BRANCHES]
        _require(sum(counts) == n, f"branch counts {counts} do not sum to {n}")
        hist = {int(k): v for k, v in rep["rounds_histogram"].items()}
        _require(sum(hist.values()) == n, f"rounds histogram {hist} does not sum to {n}")
        if pool:
            self.branch_counts += counts
            for k, v in hist.items():
                self.rounds[k] = self.rounds.get(k, 0) + v
        return n

    def pooled_failures(self) -> list[str]:
        """Branch rates against 1/4, each within five binomial sigmas."""
        n = int(self.branch_counts.sum())
        return [f"branch {protocol.BRANCHES[k]}: {c} of {n} trials"
                for k, c in enumerate(self.branch_counts) if not binomial_ok(int(c), n, 0.25)]

    def fingerprint(self, inp, out) -> bytes:
        return out.to_json().encode()


class ElectronicHaar(_TeleportChecks):
    """``run_trials(None, "electronic", 100, seed=s_k)``: Haar amplitudes per trial."""

    name = "electronic-haar"
    variant = "electronic"
    calls_per_pass = 25
    trials_per_call = 100

    def inputs(self, seed: int, p: int) -> list[int]:
        return _call_seeds(seed, p, self.calls_per_pass)

    def call(self, s: int):
        return protocol.run_trials(None, "electronic", self.trials_per_call, seed=s)

    def check(self, s, rep, pool: bool) -> int:
        return self._check_report(rep.to_dict(), pool)


class MixedDM(_TeleportChecks):
    """``run_trials(None, "mixed", 10, resource=R_k)`` on random mixed resources.

    ``R_k`` mixes the a-doublon, b-doublon and singlet states with weights
    ``0.1 e_singlet + 0.9 Dirichlet(1, 1, 1)``: the singlet floor of 0.1 is
    the one acceptance criterion c09 uses.
    """

    name = "mixed-dm"
    variant = "mixed"
    calls_per_pass = 50
    trials_per_call = 10

    def __init__(self, work_dir: str):
        super().__init__(work_dir)
        self._span = protocol.neutral_spin_zero_basis(fock.AB_MODES)

    def inputs(self, seed: int, p: int) -> list[tuple]:
        rng = np.random.default_rng([seed, p])
        out = []
        for s in rng.integers(0, 2**31 - 1, size=self.calls_per_pass):
            w = 0.1 * np.array([0.0, 0.0, 1.0]) + 0.9 * rng.dirichlet([1.0, 1.0, 1.0])
            rho = fock.DensityMatrix(fock.AB_MODES, self._span @ np.diag(w) @ self._span.conj().T)
            out.append((int(s), tuple(float(x) for x in w), rho))
        return out

    def call(self, inp):
        s, _, rho = inp
        return protocol.run_trials(None, "mixed", self.trials_per_call, seed=s, resource=rho)

    def check(self, inp, rep, pool: bool) -> int:
        return self._check_report(rep.to_dict(), pool)


class ColdatomScan(_TeleportChecks):
    """``edgeteleport teleport --variant coldatom`` in-process, one Bloch point per call."""

    name = "coldatom-scan"
    variant = "coldatom"
    calls_per_pass = 25
    trials_per_call = 50

    def inputs(self, seed: int, p: int) -> list[list[str]]:
        rng = np.random.default_rng([seed, p])
        out_path = os.path.join(self.work_dir, "teleport.json")
        argvs = []
        for _ in range(self.calls_per_pass):
            theta = math.acos(1.0 - 2.0 * float(rng.random()))
            phi = 2.0 * math.pi * float(rng.random())
            s = int(rng.integers(0, 2**31 - 1))
            g2 = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
            argvs.append(["teleport", "--variant", "coldatom",
                          f"--g1={math.cos(theta / 2)!r},0.0",
                          f"--g2={g2.real!r},{g2.imag!r}",
                          "--trials", str(self.trials_per_call), "--seed", str(s),
                          "--out", out_path])
        return argvs

    def call(self, argv):
        return _cli(argv)

    def check(self, argv, out, pool: bool) -> int:
        code, text = out
        _require(code == 0, f"exit code {code}")
        with open(argv[-1], "rb") as fh:
            raw = fh.read()
        self.bytes_written += len(raw) + len(text)
        return self._check_report(json.loads(raw), pool)

    def pooled_failures(self) -> list[str]:
        """Branch rates, and the restart law P(rounds > k) = 2^-k of criterion c06."""
        bad = super().pooled_failures()
        n = sum(self.rounds.values())
        for k in ROUND_LAW_KS:
            beyond = sum(v for r, v in self.rounds.items() if r > k)
            if not binomial_ok(beyond, n, 0.5**k):
                bad.append(f"rounds > {k}: {beyond} of {n} trials, expected {n * 0.5**k:g}")
        return bad

    def fingerprint(self, argv, out) -> bytes:
        with open(argv[-1], "rb") as fh:
            return fh.read()


#: Odd chain sizes of one chain-sweep pass: 32 cheap sizes up to 1001, then
#: 2001, whose O(n^3) solve takes the largest share of the time.  Three calls
#: each make 99 calls a pass.
CHAIN_LADDER = tuple(sorted({int(x) // 2 * 2 + 1 for x in np.linspace(59, 1001, 32)}
                            | {2001}))
CHAIN_T = 1.0
HUBBARD_E2 = 1.0


class ChainSweep:
    """``spectrum``, ``zeromode`` and ``hubbard`` through the CLI over a size ladder.

    The seed picks only ``t'/t``, so the cost does not depend on it.  The
    hubbard coupling at ladder point ``i`` is ``lambda = 0.1 (i + 1) / len``,
    inside the strong-Coulomb regime where no warning is raised.
    """

    name = "chain-sweep"
    #: Most of a pass is LAPACK's dense eigensolve, which the machine's fast
    #: and slow spells hardly move, though they move the reference unit: over
    #: ten runs the raw pass time spread 0.05, and scaled by the speed factor
    #: 0.10.  So its ``norm_`` metrics equal the raw ones.
    speed_normalised = False

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.bytes_written = 0

    @staticmethod
    def tprime(seed: int) -> float:
        return 0.3 + 0.5 * float(np.random.default_rng([seed]).random())

    def warm_up(self) -> None:
        _cli(self._wire_argv("spectrum", CHAIN_LADDER[0], self.tprime(0)))

    def _wire_argv(self, command: str, sites: int, tprime: float) -> list[str]:
        return [command, "--sites", str(sites), "--t", repr(CHAIN_T), "--tprime", repr(tprime),
                "--out", os.path.join(self.work_dir, f"{command}.csv")]

    def inputs(self, seed: int, p: int) -> list[list[str]]:
        tp = self.tprime(seed)
        argvs = []
        for i, n in enumerate(CHAIN_LADDER):
            lam = 0.1 * (i + 1) / len(CHAIN_LADDER)
            argvs.append(self._wire_argv("spectrum", n, tp))
            argvs.append(self._wire_argv("zeromode", n, tp))
            argvs.append(["hubbard", "--e2", repr(HUBBARD_E2), "--lambda", repr(lam)])
        return argvs

    def call(self, argv):
        return _cli(argv)

    def check(self, argv, out, pool: bool) -> int:
        code, text = out
        _require(code == 0, f"exit code {code}")
        self.bytes_written += len(text)
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "hubbard":
            e2, lam = float(opts["--e2"]), float(opts["--lambda"])
            exact = (e2 - math.sqrt(e2 * e2 + 16.0 * lam * lam)) / 2.0
            got = json.loads(text)["E0_exact"]
            _require(abs(got - exact) <= 1e-10 * e2, f"E0_exact {got!r} vs closed form {exact!r}")
            return 0
        sites, t, tp, path = (int(opts["--sites"]), float(opts["--t"]), float(opts["--tprime"]),
                              opts["--out"])
        self.bytes_written += os.path.getsize(path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        _require(table.shape[0] == sites, f"{table.shape[0]} rows for {sites} sites")
        if argv[0] == "spectrum":
            worst = float(table[:, 3].max())
            _require(worst <= 1e-10 * t, f"max abs_diff {worst!r}")
            zeros = int(np.count_nonzero(np.abs(table[:, 2]) <= 1e-10 * t))
            _require(zeros == 1, f"{zeros} zero levels")
            return 1
        r = tp / t
        half = (sites - 1) // 2
        expected = np.zeros(sites)
        expected[0::2] = (1 - r * r) / (1 - r ** (2 * half + 2)) * r ** (2.0 * np.arange(half + 1))
        worst = float(np.abs(table[:, 1] - expected).max())
        _require(worst <= 1e-12, f"zero-mode density off the closed form by {worst!r}")
        return 0

    def pooled_failures(self) -> list[str]:
        return []

    def fingerprint(self, argv, out) -> bytes:
        if argv[0] == "hubbard":
            return out[1].encode()
        with open(argv[-1], "rb") as fh:
            return fh.read()


WORKLOADS = {w.name: w for w in (ElectronicHaar, ColdatomScan, MixedDM, ChainSweep)}


def trace_targets() -> list[tuple]:
    """``(span_name, owner, attr, cpu)`` for every traced public function.

    Span names start with the layer's module name; ``_kernels`` is spelled
    ``kernels`` because a metric name must start with a letter.
    """
    plain = [
        (protocol, ["trial_rng", "prepare_initial", "run_teleport_once", "bob_fidelity",
                    "run_trials", "run_teleport_mixed"]),
        (fock, ["create", "singlet_state", "vacuum_state"]),
        (gates, ["apply_gate", "gate_unitary"]),
        (measure, ["measure_spin", "measure_spin_class", "spin_sector_bases",
                   "integer_class_projector", "measure_spin_dm", "measure_spin_class_dm"]),
        (relax, ["relax_to_ground", "sector_ground_spaces", "relax_to_ground_dm"]),
        (hubbard, ["hubbard_report", "build_h_lambda"]),
        (ssh_lattice, ["numerical_spectrum", "build_hamiltonian", "analytic_spectrum",
                       "zeromode_density_csv"]),
        (cli, ["main"]),
    ]
    targets = [("protocol.haar", protocol.SpinAmplitudes, "haar", False)]
    for mod, attrs in plain:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            targets.append((f"{layer}.{attr}", mod, attr, attr == "numerical_spectrum"))
    targets += [(f"kernels.{attr}", _kernels, attr, False)
                for attr in ("electronic_batch", "coldatom_batch")]
    return targets
