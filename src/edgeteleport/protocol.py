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

Batch runs are reproducible.  Trial ``i`` of ``run_trials(..., seed)`` reads
the Philox4x64-10 counter-based stream with key ``(seed, i)`` (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), so ``0 <= seed <
2**64``.  Draw ``j`` of a trial is word ``j % 4`` of counter block
``j // 4 + 1``, turned into a double as ``(w >> 11) * 2**-53``: exactly the
doubles ``trial_rng(seed, i).random()`` returns in order.  The batch path
evaluates that pure function of ``(seed, trial, draw)`` as ``uint64`` array
arithmetic for a whole chunk of trials at once; the step-by-step path of
:func:`run_teleport_once` reads the same stream through numpy's ``Philox``.
Draws are consumed in a fixed order (three for Haar amplitudes, one per
class measurement, one for the branch), so the vectorised engine in
:mod:`edgeteleport._kernels` and the step-by-step path make the same
decisions in every trial.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
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

#: Trials per engine call: bounds the per-call arrays whatever the total
#: trial count.
_CHUNK = 1024

#: Name and version of the per-trial random-stream scheme, recorded in every
#: report; any change to the draws a trial consumes needs a new version.
_RNG_SCHEME = "philox4x64-10/v1"

#: Counter blocks (four draws each) evaluated up front for every cold-atom
#: trial of a chunk; later draws are derived only for the trials that need
#: them.  A round succeeds with probability 1/2, so 16 draws cover all but a
#: 2**-15 share of fixed-input trials (2**-12 of Haar ones, whose first three
#: draws make the input).
_PREDRAWN_BLOCKS = 4


def _require_unit_amplitudes(g1, g2):
    """Raise unless every (g1, g2) pair is finite with unit norm to 1e-12.

    Takes complex scalars or arrays; a NaN or infinite amplitude fails the
    norm test too, and is then reported as such.
    """
    a1, a2 = abs(g1), abs(g2)
    # products, not ** 2: a float power raises OverflowError above ~1e154
    if np.all(abs(a1 * a1 + a2 * a2 - 1.0) <= 1e-12):
        return
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ValueError("spin amplitudes must be finite")
    raise ValueError("|g1|^2 + |g2|^2 must equal 1")


def _haar_amplitudes(u):
    """Exact Haar-random (g1, g2) arrays from three uniforms per row of ``u``.

    ``|g1|^2`` of a Haar-random unit vector in C^2 is uniform on [0, 1] and
    the two phases are independent and uniform, so no normal draws (and no
    rejection) are needed: ``g1 = sqrt(u0) e^{2 pi i u1}``,
    ``g2 = sqrt(1 - u0) e^{2 pi i u2}``.
    """
    g1 = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    g2 = np.sqrt(1.0 - u[:, 0]) * np.exp(2j * np.pi * u[:, 2])
    _require_unit_amplitudes(g1, g2)
    return g1, g2


@dataclass(frozen=True)
class SpinAmplitudes:
    g1: complex
    g2: complex

    def __post_init__(self):
        object.__setattr__(self, "g1", complex(self.g1))
        object.__setattr__(self, "g2", complex(self.g2))
        _require_unit_amplitudes(self.g1, self.g2)

    @staticmethod
    def normalized(g1: complex, g2: complex) -> "SpinAmplitudes":
        # Python floats and products: a numpy scalar power warns on overflow,
        # a float product gives inf silently
        try:
            a1, a2 = abs(complex(g1)), abs(complex(g2))
        except OverflowError:  # a modulus above the float range
            a1 = a2 = math.inf
        n = math.sqrt(a1 * a1 + a2 * a2)
        if not math.isfinite(n):
            raise ValueError("|g1|^2 + |g2|^2 is not finite")
        if n < 1e-15:
            raise ValueError("cannot normalize zero amplitudes")
        return SpinAmplitudes(g1 / n, g2 / n)

    @staticmethod
    def haar(rng: np.random.Generator) -> "SpinAmplitudes":
        """Haar-random amplitudes from the next three uniforms of ``rng``."""
        g1, g2 = _haar_amplitudes(rng.random((1, 3)))
        return SpinAmplitudes(g1[0], g2[0])


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
def _b_reduction_indices(modes):
    """(n_up, n_dn, sign) with b_dn^dag b_up |n_up> = sign |n_dn>, by n_up."""
    iu, idn = modes.wire_indices(BOB_WIRE)
    flip = (creation_matrix(modes, idn) @ annihilation_matrix(modes, iu)).T
    n_up, n_dn = np.nonzero(flip)
    return n_up, n_dn, flip[n_up, n_dn]


def bob_reduced_spin(state) -> np.ndarray:
    """Unnormalized 2x2 spin density matrix of Bob's singly occupied wire."""
    n_up, n_dn, signs = _b_reduction_indices(state.modes)
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


def bob_fidelity(state, g: SpinAmplitudes) -> float:
    """|overlap| of Bob's reduced one-electron spin state with (g1, g2)."""
    rho = bob_reduced_spin(state)
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


@functools.lru_cache(maxsize=None)
def _relax_hamiltonian():
    """Hopping Hamiltonian used as the relaxation target (scale is irrelevant:
    the sector ground spaces do not depend on lam > 0)."""
    return build_h_lambda(1.0, TELEPORT_MODES)


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
    """Per-trial stream: numpy's Philox4x64-10 keyed by ``(seed, trial)``.

    The key is built as a ``uint64`` array: from a list numpy rounds words
    above 2**53 through float, so distinct seeds would share a stream.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


# 0-d arrays: a ufunc takes them faster than numpy scalars
_LO32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_U32 = np.array(32, dtype=np.uint64)
# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# the multipliers' 32-bit halves, low then high, shaped to broadcast against
# the (2, 2, n) halves [lo(x), hi(x)] of the words a round multiplies
_PHILOX_M_HALVES = np.stack([_PHILOX_M & _LO32, _PHILOX_M >> _U32])[:, None]
# round r adds r * W to the key; uint64 array products wrap silently
_PHILOX_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W


def _philox_blocks(seed: int, trials, blocks) -> np.ndarray:
    """Philox4x64-10 output words ``(n, 4)`` of counter ``(blocks[k], 0, 0, 0)``
    under key ``(seed, trials[k])``, for 1-d ``trials`` and ``blocks`` of
    length ``n``.

    Both 64x64-bit products of a round run as array operations on ``(2, n)``
    words.  The low words are the wrapped ``uint64`` products; the high words
    are summed from the four products of 32-bit halves, none of which
    overflows, and those four come from one broadcast product.  The ten round
    keys are one broadcast sum, and every round writes into buffers allocated
    once per call.
    """
    n = len(trials)
    first_key = np.empty((2, n), dtype=np.uint64)
    first_key[0], first_key[1] = seed, np.asarray(trials, dtype=np.uint64)
    keys = first_key + _PHILOX_KEY_STEPS
    x02 = np.zeros((2, n), dtype=np.uint64)  # counter words 0 and 2
    x02[0] = blocks
    x31 = np.zeros_like(x02)  # counter words 3 and 1
    nxt, hi = np.empty_like(x02), np.empty_like(x02)
    halves = np.empty((2, 2, n), dtype=np.uint64)  # [lo(x02), hi(x02)]
    # products of halves [lo(x) lo(M), hi(x) lo(M), lo(x) hi(M), hi(x) hi(M)]
    prod = np.empty((4, 2, n), dtype=np.uint64)
    ll, hl, lh, _ = prod
    tw, high_terms = prod[1:3], prod[1:]
    # One round: (x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2),
    #                                 hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)).
    # Keeping words 1 and 3 in reverse order leaves one reversed operand per round.
    for key in keys:
        np.bitwise_and(x02, _LO32, out=halves[0])
        np.right_shift(x02, _U32, out=halves[1])
        np.multiply(halves, _PHILOX_M_HALVES, out=prod.reshape(2, 2, 2, n))
        np.right_shift(ll, _U32, out=ll)
        hl += ll  # t = hi(x) lo(M) + (lo(x) lo(M) >> 32)
        np.bitwise_and(hl, _LO32, out=ll)
        lh += ll  # w = lo(t) + lo(x) hi(M)
        np.right_shift(tw, _U32, out=tw)
        np.add.reduce(high_terms, axis=0, out=hi)  # hi(x) hi(M) + (t >> 32) + (w >> 32)
        np.bitwise_xor(hi, x31, out=nxt[::-1])
        nxt ^= key
        np.multiply(x02, _PHILOX_M, out=x31)
        x02, nxt = nxt, x02
    out = np.empty((n, 4), dtype=np.uint64)  # words (x0, x1, x2, x3) per row
    out[:, 0::2], out[:, 1::2] = x02.T, x31[::-1].T
    return out


def _to_unit_double(words) -> np.ndarray:
    """numpy's uint64 -> [0, 1) double: the top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _stream_uniforms(seed: int, trials, draws) -> np.ndarray:
    """Draw ``draws[k]`` of trial ``trials[k]``'s stream, for 1-d arrays.

    Equal to the ``draws[k]``-th double of ``trial_rng(seed, trials[k])``.
    """
    draws = np.asarray(draws, dtype=np.int64)
    words = _philox_blocks(seed, trials, draws // 4 + 1)
    return _to_unit_double(np.take_along_axis(words, (draws % 4)[:, None], axis=1)[:, 0])


def _stream_prefix(seed: int, trials, n_blocks: int) -> np.ndarray:
    """The first ``4 * n_blocks`` draws of each trial's stream, one row per trial."""
    words = _philox_blocks(seed, np.repeat(trials, n_blocks),
                           np.arange(len(trials) * n_blocks) % n_blocks + 1)
    return _to_unit_double(words).reshape(len(trials), 4 * n_blocks)


@dataclass(frozen=True)
class TeleportReport:
    variant: str
    trials: int
    seed: int
    g1: tuple[float, float] | None
    g2: tuple[float, float] | None
    backend: str
    rng: str
    branch_counts: dict[str, int]
    rounds_histogram: dict[int, int]
    mean_rounds: float
    min_fidelity: float
    mean_fidelity: float

    def to_dict(self) -> dict:
        """The fields in order, with JSON-ready ``g1``, ``g2`` and round keys."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("g1", "g2"):
            d[key] = list(d[key]) if d[key] is not None else None
        d["branch_counts"] = dict(self.branch_counts)
        d["rounds_histogram"] = {str(k): v for k, v in sorted(self.rounds_histogram.items())}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _assemble_report(variant, seed, g, chunks) -> TeleportReport:
    """Fold ``(branches, rounds, fidelities)`` chunks into a report in O(chunk)
    memory.  The fidelity sum is pairwise over chunks, from a stack of
    ``(k, sum of 2**k chunks)``; one chunk gives exactly ``np.mean``."""
    per_branch, per_round = np.zeros(len(BRANCHES), dtype=np.int64), np.zeros(0, dtype=np.int64)
    n, min_fid, fid_sums = 0, np.inf, []
    for branches, rounds, fids in chunks:
        n += len(branches)
        per_branch += np.bincount(branches, minlength=len(BRANCHES))
        counts = np.bincount(rounds, minlength=len(per_round))
        counts[:len(per_round)] += per_round
        per_round = counts
        min_fid = float(np.minimum(min_fid, np.min(fids)))
        level, x = 0, float(np.sum(fids))
        while fid_sums and fid_sums[-1][0] == level:
            level, x = level + 1, fid_sums.pop()[1] + x
        fid_sums.append((level, x))
    return TeleportReport(
        variant=variant,
        trials=n,
        seed=seed,
        g1=(g.g1.real, g.g1.imag) if g is not None else None,
        g2=(g.g2.real, g.g2.imag) if g is not None else None,
        backend=default_backend(),
        rng=_RNG_SCHEME,
        branch_counts={f"{j:g},{m:g}": int(c) for (j, m), c in zip(BRANCHES, per_branch)},
        rounds_histogram={r: int(c) for r, c in enumerate(per_round) if c},
        mean_rounds=int(per_round @ np.arange(len(per_round))) / n,
        min_fidelity=min_fid,
        mean_fidelity=sum(partial for _, partial in reversed(fid_sums)) / n,
    )


def _branch_index(j: float, m: float) -> int:
    for k, (jj, mm) in enumerate(BRANCHES):
        if abs(j - jj) < 1e-9 and abs(m - mm) < 1e-9:
            return k
    raise ValueError(f"unexpected branch ({j}, {m})")


def default_backend() -> str:
    """Name of the trial engine, recorded in every report's ``backend`` field."""
    return "numpy"


def _indicator(blocks) -> np.ndarray:
    """0/1 matrix summing ``|psi @ np.hstack(blocks)|^2`` block by block, with
    a row per real and imaginary part, as in a complex array's float64 view."""
    col = np.repeat(np.arange(len(blocks)), [2 * b.shape[1] for b in blocks])
    return (col[:, None] == np.arange(len(blocks))).astype(np.float64)


@functools.lru_cache(maxsize=None)
def _kernel_setup(variant: str) -> dict:
    """Stacked arrays consumed by the batch engine, built once per variant.

    The bases are the cached ones of :mod:`edgeteleport.measure` and
    :mod:`edgeteleport.relax`, stacked side by side.  Alice's gates, and for
    electronic trials (``[g1, g2] @ inputs``) the two inputs, are folded into
    her columns; Bob's corrected branch bases are folded onto those.
    """
    modes = TELEPORT_MODES
    sectors = spin_sector_bases(modes, ALICE_WIRES)
    inputs = np.stack([prepare_initial(SpinAmplitudes(1.0, 0.0), variant).amps,
                       prepare_initial(SpinAmplitudes(0.0, 1.0), variant).amps])
    u_alice = gate_unitary(hadamard("c"), modes) @ gate_unitary(cnot("c", "a"), modes)
    # psi @ blocks[s] = sector-s coordinates of psi after Alice's two gates
    blocks = [u_alice.T @ basis.conj() for _, _, basis in sectors]
    if variant == "electronic":
        blocks = [inputs @ b for b in blocks]
    n_up, n_dn, signs = _b_reduction_indices(modes)
    branch_of_sector = np.full(len(sectors), -1, dtype=np.int64)
    bob = []
    for s, (j, m, basis) in enumerate(sectors):
        if (j, m) not in BRANCHES:
            continue
        branch_of_sector[s] = BRANCHES.index((j, m))
        corrected = basis
        for spec in bob_correction(j, m):
            corrected = gate_unitary(spec, modes) @ corrected
        # x @ bob = Bob's amplitudes [up | sign * dn] in branch s, unnormalised
        read = np.vstack([corrected[n_up], signs[:, None] * corrected[n_dn]])
        bob.append(blocks[s] @ read.T)
    alice = np.hstack(blocks)
    used = np.any(alice != 0, axis=0)  # 8 of 64 columns for electronic trials
    setup = {
        "inputs": inputs,
        "alice": alice[:, used],
        "alice_sectors": _indicator(blocks)[np.repeat(used, 2)],
        "branch_of_sector": branch_of_sector,
        "sector_labels": tuple((j, m) for j, m, _ in sectors),
        "bob": tuple(bob),
        # [s, s + 1] per branch sector s, in the order of "bob": searched in
        # the sector-sorted reached pairs, they bound each branch's segment
        "bob_bounds": np.array([[s, s + 1] for s in np.flatnonzero(branch_of_sector >= 0)]),
    }
    if variant == "coldatom":
        pairs = sector_ground_spaces(_relax_hamiltonian())
        grounds = [ground for _, ground in pairs]
        setup["p_int"] = integer_class_projector(modes, ALICE_WIRES)
        # psi @ relax_cols = [sector coordinates | ground coordinates] of psi,
        # and the indicator sums them into [sector weights | ground weights]
        setup["relax_cols"] = np.hstack([basis for basis, _ in pairs] + grounds).conj()
        setup["relax_sectors"] = _indicator([basis for basis, _ in pairs] + grounds)
        setup["ground_sector"] = np.repeat(np.arange(len(pairs)), [g.shape[1] for g in grounds])
        setup["ground_t"] = np.hstack(grounds).T
    return setup


def _run_trials_batched(g, variant, n, seed, max_rounds):
    """Yield ``(branches, rounds, fidelities)`` arrays, one chunk at a time.

    The engine gets the distinct inputs of a chunk and each trial's row among
    them: one row shared by every trial for a fixed ``g``, one row per trial
    for Haar-random inputs.
    """
    setup = _kernel_setup(variant)
    first = 0 if g is not None else 3  # a Haar trial's first three draws make g
    n_blocks = 1 if variant == "electronic" else _PREDRAWN_BLOCKS
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        trials = np.arange(start, start + size, dtype=np.uint64)
        pre = _stream_prefix(seed, trials, n_blocks)
        if g is None:
            g_rows, of = np.stack(_haar_amplitudes(pre[:, :3]), axis=1), np.arange(size)
        else:
            g_rows, of = np.array([[g.g1, g.g2]]), np.zeros(size, dtype=np.int64)
        if variant == "electronic":
            branches, fids = _kernels.electronic_batch(setup, g_rows, of, pre[:, first])
            yield branches, np.ones(size, dtype=np.int64), fids
            continue

        def draw(rows, k, trials=trials, pre=pre):
            j = first + k
            if isinstance(j, int) and j < pre.shape[1]:
                return pre[rows, j]  # a round's class draws: one column of the block
            j = np.broadcast_to(j, rows.shape)
            near = j < pre.shape[1]
            if near.all():
                return pre[rows, j]
            u = np.empty(rows.shape)
            u[near] = pre[rows[near], j[near]]
            far = ~near
            u[far] = _stream_uniforms(seed, trials[rows[far]], j[far])
            return u

        yield _kernels.coldatom_batch(setup, g_rows, of, draw, max_rounds)


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
    if seed >= 2**64:
        raise ValueError("seed must be < 2**64: it is one 64-bit word of the stream key")

    if variant != "mixed":
        return _assemble_report(variant, seed, g,
                                _run_trials_batched(g, variant, n, seed, max_rounds))

    # Density-matrix path; not batched (cold spot, runs are few).
    if resource is None:
        resource = DensityMatrix.from_state(singlet_state(AB_MODES))
    results = []
    for i in range(n):
        rng = trial_rng(seed, i)
        res = run_teleport_mixed(g if g is not None else SpinAmplitudes.haar(rng),
                                 resource, rng, max_rounds)
        results.append((_branch_index(*res.branch), res.rounds, res.fidelity))
    return _assemble_report(variant, seed, g, [tuple(map(np.array, zip(*results)))])
