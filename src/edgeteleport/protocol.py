"""End-to-end spin teleportation between the edge modes of two wires.

Wire c holds Alice's test electron in the spin state ``g1 |up> + g2 |dn>``;
wires a (Alice) and b (Bob) hold the entangled resource.  Three variants:

electronic
    The resource is the spin singlet across a and b.  Alice applies the
    c-controlled spin flip on a and the Hadamard on c, measures total spin
    (J, Jz) of c-a, and sends the two values to Bob, who applies the listed
    correction gates to b.  Recovery is exact up to a global phase.

coldatom
    The resource is the hopping ground state, which also contains doubly
    occupied components.  Alice first measures whether the c-a spin is
    integer or half-odd-integer.  Integer projects onto the singlet-resource
    form and the electronic steps follow; half-odd leaves a doublon state
    from which no direct recovery is attempted: the a-b subsystem is relaxed
    back to the hopping ground state and the measurement repeats.  Each round
    succeeds with probability 1/2.

mixed
    The resource is any density matrix on the charge-neutral, spin-zero span
    of the a-b space with nonzero singlet weight; the class-measure/relax
    loop runs on density matrices throughout and completes with fidelity 1.

Fidelity compares Bob's reduced one-electron spin state against (g1, g2) and
ignores global phase, since two of the correction sequences introduce an
overall -1.

Batch runs are reproducible: trial ``i`` of ``run_trials(..., seed)`` uses the
generator ``default_rng([seed, i])`` and consumes draws in a fixed order, so
the vectorised engine in :mod:`edgeteleport._kernels` and the step-by-step
path of :func:`run_teleport_once` make the same decisions in every trial.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    StateVector,
    annihilation_matrix,
    basis_state,
    create,
    creation_matrix,
    singlet_state,
    vacuum_state,
)
from .gates import GateSpec, apply_gate, cnot, gate_unitary, hadamard, iy
from .hubbard import build_h_lambda
from .measure import (
    INTEGER,
    integer_class_projector,
    measure_spin,
    measure_spin_class,
    measure_spin_class_dm,
    measure_spin_dm,
    spin_sector_bases,
)
from .relax import relax_to_ground, relax_to_ground_dm, sector_ground_spaces

ALICE_WIRES = ("c", "a")
BOB_WIRE = "b"

#: Canonical branch order: the four (J, Jz) outcomes of Alice's measurement.
BRANCHES = ((1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0))

DEFAULT_MAX_ROUNDS = 64

VARIANTS = ("electronic", "coldatom", "mixed")

#: Trials per engine call: bounds the per-call arrays (the cold-atom uniforms
#: are ``max_rounds + 1`` per trial) whatever the total trial count.
_CHUNK = 1024


@dataclass(frozen=True)
class SpinAmplitudes:
    g1: complex
    g2: complex

    def __post_init__(self):
        object.__setattr__(self, "g1", complex(self.g1))
        object.__setattr__(self, "g2", complex(self.g2))
        if not (np.isfinite(self.g1) and np.isfinite(self.g2)):
            raise ValueError("spin amplitudes must be finite")
        n = abs(self.g1) ** 2 + abs(self.g2) ** 2
        if abs(n - 1.0) > 1e-12:
            raise ValueError("|g1|^2 + |g2|^2 must equal 1")

    @staticmethod
    def normalized(g1: complex, g2: complex) -> "SpinAmplitudes":
        n = np.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
        if not np.isfinite(n):
            raise ValueError("spin amplitudes must be finite")
        if n < 1e-15:
            raise ValueError("cannot normalize zero amplitudes")
        return SpinAmplitudes(g1 / n, g2 / n)

    @staticmethod
    def haar(rng: np.random.Generator) -> "SpinAmplitudes":
        z = rng.standard_normal(4)
        return SpinAmplitudes.normalized(z[0] + 1j * z[1], z[2] + 1j * z[3])


def prepare_initial(g: SpinAmplitudes, variant: str) -> StateVector:
    """Alice's electron times the resource state, as a unit vector."""
    modes = TELEPORT_MODES
    if variant == "electronic":
        resource = singlet_state(modes, "a", "b")
    elif variant == "coldatom":
        vac = vacuum_state(modes)
        # (a_up^dag - b_up^dag)(a_dn^dag - b_dn^dag)|vac> / 2
        resource = 0.5 * (
            create(create(vac, "a", "dn"), "a", "up")
            - create(create(vac, "b", "dn"), "a", "up")
            - create(create(vac, "a", "dn"), "b", "up")
            + create(create(vac, "b", "dn"), "b", "up")
        )
    else:
        raise ValueError(f"variant must be 'electronic' or 'coldatom', got {variant!r}")
    return g.g1 * create(resource, "c", "up") + g.g2 * create(resource, "c", "dn")


_CORRECTION_TABLE = {
    (2, 2): (iy(BOB_WIRE),),
    (2, 0): (hadamard(BOB_WIRE), iy(BOB_WIRE)),
    (2, -2): (),
    (0, 0): (hadamard(BOB_WIRE),),
}


def bob_correction(j: float, m: float) -> list[GateSpec]:
    """Bob's gate list for a reported (J, Jz); applied left to right."""
    if abs(2 * j - round(2 * j)) > 1e-9 or abs(2 * m - round(2 * m)) > 1e-9:
        raise ValueError(f"non half-integer branch ({j}, {m})")
    key = (int(round(2 * j)), int(round(2 * m)))
    try:
        return list(_CORRECTION_TABLE[key])
    except KeyError:
        raise ValueError(f"no correction for branch ({j}, {m})") from None


# ---------------------------------------------------------------------------
# Bob's reduced spin state and fidelity
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _b_reduction_indices(modes, wire):
    """(n_up, n_dn, sign) with f_dn^dag f_up |n_up> = sign |n_dn>, by n_up."""
    iu, idn = modes.wire_indices(wire)
    flip = (creation_matrix(modes, idn) @ annihilation_matrix(modes, iu)).T
    n_up, n_dn = np.nonzero(flip)
    return n_up, n_dn, flip[n_up, n_dn]


def bob_reduced_spin(state, wire: str = BOB_WIRE) -> np.ndarray:
    """Unnormalized 2x2 spin density matrix of the singly occupied wire."""
    n_up, n_dn, signs = _b_reduction_indices(state.modes, wire)
    if isinstance(state, DensityMatrix):
        r00 = float(np.sum(np.diagonal(state.mat)[n_up]).real)
        r11 = float(np.sum(np.diagonal(state.mat)[n_dn]).real)
        r01 = complex(np.sum(signs * state.mat[n_up, n_dn]))
    else:
        au = state.amps[n_up]
        ad = state.amps[n_dn]
        r00 = float(np.sum(np.abs(au) ** 2))
        r11 = float(np.sum(np.abs(ad) ** 2))
        r01 = complex(np.sum(signs * au * ad.conj()))
    return np.array([[r00, r01], [np.conj(r01), r11]], dtype=np.complex128)


def bob_fidelity(state, g: SpinAmplitudes, wire: str = BOB_WIRE) -> float:
    """|overlap| of Bob's reduced one-electron spin state with (g1, g2)."""
    rho = bob_reduced_spin(state, wire)
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        return 0.0
    t = np.array([g.g1, g.g2])
    val = float(np.vdot(t, rho @ t).real) / tr
    return float(np.sqrt(max(0.0, val)))


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeleportResult:
    branch: tuple[float, float]
    rounds: int
    fidelity: float
    bob_state: StateVector | DensityMatrix = field(repr=False)


_RELAX_H = None


def _relax_hamiltonian():
    """Hopping Hamiltonian used as the relaxation target (scale is irrelevant:
    the sector ground spaces do not depend on lam > 0)."""
    global _RELAX_H
    if _RELAX_H is None:
        _RELAX_H = build_h_lambda(1.0, TELEPORT_MODES)
    return _RELAX_H


def run_teleport_once(g: SpinAmplitudes, variant: str, rng: np.random.Generator,
                      max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportResult:
    """One protocol run through the step-by-step library path."""
    psi = prepare_initial(g, variant)
    rounds = 1
    if variant == "coldatom":
        rounds = 0
        while True:
            rounds += 1
            cls, psi = measure_spin_class(psi, ALICE_WIRES, rng)
            if cls == INTEGER:
                break
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"no integer-spin outcome after {max_rounds} restarts; "
                    "statistically unreachable, check the setup"
                )
            psi = relax_to_ground(psi, _relax_hamiltonian())
    psi = apply_gate(cnot("c", "a"), psi)
    psi = apply_gate(hadamard("c"), psi)
    outcome = measure_spin(psi, ALICE_WIRES, rng)
    psi = outcome.post_state
    for spec in bob_correction(outcome.j, outcome.m):
        psi = apply_gate(spec, psi)
    return TeleportResult((outcome.j, outcome.m), rounds, bob_fidelity(psi, g), psi)


def neutral_spin_zero_basis(modes=AB_MODES) -> np.ndarray:
    """Columns spanning {a doublon, b doublon, a-b singlet} (charge 0, J = 0)."""
    iu_a, idn_a = modes.wire_indices("a")
    iu_b, idn_b = modes.wire_indices("b")
    da = basis_state(modes, [iu_a, idn_a]).amps
    db = basis_state(modes, [iu_b, idn_b]).amps
    s = singlet_state(modes, "a", "b").amps
    return np.column_stack([da, db, s])


def run_teleport_mixed(g: SpinAmplitudes, resource: DensityMatrix,
                       rng: np.random.Generator,
                       max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportResult:
    """Teleport with a mixed a-b resource, in the density-matrix formalism.

    The resource must live on the charge-neutral spin-zero span of the a-b
    space and carry nonzero singlet weight.
    """
    if resource.modes != AB_MODES:
        raise ValueError("resource must be given on the a-b mode set")
    resource.validate(tol=1e-10)
    span = neutral_spin_zero_basis(AB_MODES)
    r3 = span.conj().T @ resource.mat @ span
    if np.abs(span @ r3 @ span.conj().T - resource.mat).max() > 1e-10:
        raise ValueError("resource has support outside the neutral spin-zero span")
    singlet = singlet_state(AB_MODES).amps
    p_singlet = float(np.vdot(singlet, resource.mat @ singlet).real)
    if p_singlet <= 1e-12:
        raise ValueError("resource has zero singlet weight and cannot teleport")

    chi = np.zeros(4, dtype=np.complex128)
    chi[1] = g.g1  # c_up occupied
    chi[2] = g.g2  # c_dn occupied
    rho = DensityMatrix(TELEPORT_MODES, np.kron(resource.mat, np.outer(chi, chi.conj())))

    rounds = 0
    while True:
        rounds += 1
        cls, rho = measure_spin_class_dm(rho, ALICE_WIRES, rng)
        if cls == INTEGER:
            break
        if rounds >= max_rounds:
            raise RuntimeError(f"no integer-spin outcome after {max_rounds} restarts")
        rho = relax_to_ground_dm(rho, _relax_hamiltonian())

    for spec in (cnot("c", "a"), hadamard("c")):
        u = gate_unitary(spec, TELEPORT_MODES)
        rho = DensityMatrix(TELEPORT_MODES, u @ rho.mat @ u.conj().T)
    j, m, _, rho = measure_spin_dm(rho, ALICE_WIRES, rng)
    for spec in bob_correction(j, m):
        u = gate_unitary(spec, TELEPORT_MODES)
        rho = DensityMatrix(TELEPORT_MODES, u @ rho.mat @ u.conj().T)
    return TeleportResult((j, m), rounds, bob_fidelity(rho, g), rho)


# ---------------------------------------------------------------------------
# Batched trials
# ---------------------------------------------------------------------------

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream: independent, reproducible, order-insensitive."""
    return np.random.default_rng([seed, trial])


@dataclass(frozen=True)
class TeleportReport:
    variant: str
    trials: int
    seed: int
    g1: tuple[float, float] | None
    g2: tuple[float, float] | None
    backend: str
    branch_counts: dict[str, int]
    rounds_histogram: dict[int, int]
    mean_rounds: float
    min_fidelity: float
    mean_fidelity: float

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "trials": self.trials,
            "seed": self.seed,
            "g1": list(self.g1) if self.g1 is not None else None,
            "g2": list(self.g2) if self.g2 is not None else None,
            "backend": self.backend,
            "branch_counts": self.branch_counts,
            "rounds_histogram": {str(k): v for k, v in sorted(self.rounds_histogram.items())},
            "mean_rounds": self.mean_rounds,
            "min_fidelity": self.min_fidelity,
            "mean_fidelity": self.mean_fidelity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _branch_key(j: float, m: float) -> str:
    return f"{j:g},{m:g}"


def _assemble_report(variant, seed, g, branches, rounds, fids) -> TeleportReport:
    per_branch = np.bincount(branches, minlength=len(BRANCHES))
    counts = {_branch_key(j, m): int(c) for (j, m), c in zip(BRANCHES, per_branch)}
    values, freqs = np.unique(rounds, return_counts=True)
    hist = {int(r): int(c) for r, c in zip(values, freqs)}
    return TeleportReport(
        variant=variant,
        trials=len(branches),
        seed=seed,
        g1=(g.g1.real, g.g1.imag) if g is not None else None,
        g2=(g.g2.real, g.g2.imag) if g is not None else None,
        backend=default_backend(),
        branch_counts=counts,
        rounds_histogram=hist,
        mean_rounds=float(np.mean(rounds)),
        min_fidelity=float(np.min(fids)),
        mean_fidelity=float(np.mean(fids)),
    )


_SETUP_CACHE: dict[str, dict] = {}


def _branch_index(j: float, m: float) -> int:
    for k, (jj, mm) in enumerate(BRANCHES):
        if abs(j - jj) < 1e-9 and abs(m - mm) < 1e-9:
            return k
    raise ValueError(f"unexpected branch ({j}, {m})")


def default_backend() -> str:
    """Name of the trial engine, recorded in every report's ``backend`` field."""
    return "numpy"


def _kernel_setup(variant: str) -> dict:
    """Arrays consumed by the batch engine, built once per variant.

    The measurement and relaxation bases are the cached ones of
    :mod:`edgeteleport.measure` and :mod:`edgeteleport.relax`.  The only new
    arrays are those bases with Alice's gates folded in, and Bob's corrected
    branch bases restricted to the rows his reduced state reads.
    """
    cached = _SETUP_CACHE.get(variant)
    if cached is not None:
        return cached
    modes = TELEPORT_MODES
    sectors = spin_sector_bases(modes, ALICE_WIRES)
    u_alice = gate_unitary(hadamard("c"), modes) @ gate_unitary(cnot("c", "a"), modes)
    n_up, n_dn, signs = _b_reduction_indices(modes, BOB_WIRE)
    branch_of_sector = np.full(len(sectors), -1, dtype=np.int64)
    bob_rows = []
    for s, (j, m, basis) in enumerate(sectors):
        if (j, m) not in BRANCHES:
            continue
        branch_of_sector[s] = BRANCHES.index((j, m))
        corrected = basis
        for spec in bob_correction(j, m):
            corrected = gate_unitary(spec, modes) @ corrected
        bob_rows.append((s, corrected[n_up], corrected[n_dn]))
    setup = {
        "s_up": prepare_initial(SpinAmplitudes(1.0, 0.0), variant).amps,
        "s_dn": prepare_initial(SpinAmplitudes(0.0, 1.0), variant).amps,
        # row psi @ cols = sector coordinates of psi after Alice's two gates
        "alice_cols": [u_alice.T @ basis.conj() for _, _, basis in sectors],
        "branch_of_sector": branch_of_sector,
        "bob_rows": bob_rows,
        "b_sign": signs,
    }
    if variant == "coldatom":
        setup["p_int"] = integer_class_projector(modes, ALICE_WIRES)
        setup["relax_pairs"] = sector_ground_spaces(_relax_hamiltonian(), ("a", "b"))
    return _SETUP_CACHE.setdefault(variant, setup)


def _run_trials_batched(g, variant, n, seed, max_rounds):
    setup = _kernel_setup(variant)
    branches = np.empty(n, dtype=np.int64)
    rounds = np.ones(n, dtype=np.int64)
    fids = np.empty(n)
    n_uniform = 1 if variant == "electronic" else max_rounds + 1
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        g1s = np.empty(size, dtype=np.complex128)
        g2s = np.empty(size, dtype=np.complex128)
        uniforms = np.empty((size, n_uniform))
        for i in range(size):
            rng = trial_rng(seed, start + i)
            gi = g if g is not None else SpinAmplitudes.haar(rng)
            g1s[i], g2s[i] = gi.g1, gi.g2
            uniforms[i] = rng.random(n_uniform)
        out = slice(start, start + size)
        if variant == "electronic":
            branches[out], fids[out] = _kernels.electronic_batch(setup, g1s, g2s, uniforms[:, 0])
        else:
            branches[out], rounds[out], fids[out] = _kernels.coldatom_batch(
                setup, g1s, g2s, uniforms)
    return branches, rounds, fids


def warm_up(variant: str = "electronic"):
    """Build the engine's cached matrices ahead of timing-sensitive runs."""
    run_trials(SpinAmplitudes(1.0, 0.0), variant, 2, seed=0)


def run_trials(g: SpinAmplitudes | None, variant: str, n: int, seed: int = 0,
               resource: DensityMatrix | None = None,
               max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportReport:
    """Aggregate ``n`` independent seeded runs into a report.

    ``g=None`` draws fresh haar-random spin amplitudes per trial.  Reports are
    bitwise reproducible for a fixed seed.  The electronic and cold-atom
    variants run on the vectorised engine, which makes the same branch and
    round decisions as :func:`run_teleport_once` trial for trial; the mixed
    variant runs :func:`run_teleport_mixed` once per trial.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    if variant != "mixed":
        branches, rounds, fids = _run_trials_batched(g, variant, n, seed, max_rounds)
        return _assemble_report(variant, seed, g, branches, rounds, fids)

    # Density-matrix path; not batched (cold spot, runs are few).
    if resource is None:
        resource = DensityMatrix.from_state(singlet_state(AB_MODES))
    branches, rounds, fids = [], [], []
    for i in range(n):
        rng = trial_rng(seed, i)
        gi = g if g is not None else SpinAmplitudes.haar(rng)
        res = run_teleport_mixed(gi, resource, rng, max_rounds)
        branches.append(_branch_index(*res.branch))
        rounds.append(res.rounds)
        fids.append(res.fidelity)
    return _assemble_report(variant, seed, g, np.array(branches), np.array(rounds), np.array(fids))
