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

Batch runs are reproducible.  A run with seed ``s`` draws from numpy's
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) under the key ``(s, 0)``, so ``0 <= seed < 2**64``.  Block ``k`` of
trial ``i`` is the first block ``Philox(counter=i + k * 2**64)`` returns, and
draw ``j`` of the trial is word ``j % 4`` of block ``j // 4``, as the double
``(w >> 11) * 2**-53``.  Consecutive trials have consecutive counters, so the
batch path draws block ``k`` of a whole chunk with one generator call; the
step-by-step path of :func:`run_teleport_once` reads one trial's draws in
order through :func:`trial_rng`.  Both draw from one numpy ``Philox`` per
thread, whose key and counter are set before each block row, so no generator
is built per chunk or per stream.  Draws are consumed in a fixed order (three
for Haar amplitudes, one per class measurement, one for the branch), so the
vectorised engine in :mod:`edgeteleport._kernels` and the step-by-step path
make the same decisions in every trial.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import _kernels
from .fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    StateVector,
    _read_only,
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
from .relax import (
    _ORTHO_TOL,
    _WEIGHT_FLOOR,
    relax_to_ground,
    relax_to_ground_dm,
    sector_ground_spaces,
)

ALICE_WIRES = ("c", "a")
BOB_WIRE = "b"

#: Canonical branch order: the four (J, Jz) outcomes of Alice's measurement.
BRANCHES = ((1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0))

#: The report's ``branch_counts`` keys, in ``BRANCHES`` order.
_BRANCH_KEYS = tuple(f"{j:g},{m:g}" for j, m in BRANCHES)

DEFAULT_MAX_ROUNDS = 64

VARIANTS = ("electronic", "coldatom", "mixed")

#: Trials per engine call: bounds the per-call arrays whatever the total
#: trial count.
_CHUNK = 1024

#: Name and version of the per-trial random-stream scheme, recorded in every
#: report; any change to the draws a trial consumes needs a new version.
_RNG_SCHEME = "philox4x64-10/v2"


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


def _json_text(v, newline="\n"):
    """``json.dumps(v, indent=2, allow_nan=False)`` for str keys and str, int,
    float, None, bool, list and dict values, through the stdlib's own scalar
    encoders: with ``indent`` set, ``json.dumps`` runs its pure-Python encoder.
    ``newline`` is the line break and indentation of ``v``'s own level.
    """
    if isinstance(v, str):
        return _json_str(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    inner = newline + "  "
    if isinstance(v, dict):
        items, brackets = [_json_str(k) + ": " + _json_text(x, inner) for k, x in v.items()], "{}"
    elif isinstance(v, (list, tuple)):
        items, brackets = [_json_text(x, inner) for x in v], "[]"
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


#: ``|g1|^2 = u0`` and ``|g2|^2 = 1 - u0`` as ``u0 * _HAAR_SIGNS + _HAAR_OFFSETS``.
_HAAR_SIGNS, _HAAR_OFFSETS = _read_only(np.array([1.0, -1.0])), _read_only(np.array([0.0, 1.0]))


def _haar_amplitudes(u):
    """Exact Haar-random amplitudes from three uniforms per row of ``u``, as
    the ``(2, n)`` rows ``g1`` and ``g2`` (the transpose of a C-ordered
    ``(n, 2)`` array).

    ``|g1|^2`` of a Haar-random unit vector in C^2 is uniform on [0, 1] and
    the two phases are independent and uniform, so no normal draws (and no
    rejection) are needed: ``g1 = sqrt(u0) e^{2 pi i u1}``,
    ``g2 = sqrt(1 - u0) e^{2 pi i u2}``.
    """
    g = np.sqrt(u[:, :1] * _HAAR_SIGNS + _HAAR_OFFSETS) * np.exp(u[:, 1:3] * (2j * np.pi))
    d = _kernels._norm2(g) - 1.0
    # sum d^2 <= 1e-24 implies every |d| <= 1e-12; False for a NaN too
    if not d @ d <= 1e-24:
        _require_unit_amplitudes(g[:, 0], g[:, 1])
    return g.T


@dataclass(frozen=True)
class SpinAmplitudes:
    g1: complex
    g2: complex

    def __post_init__(self):
        g1, g2 = complex(self.g1), complex(self.g2)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        a1, a2 = abs(g1), abs(g2)
        if not abs(a1 * a1 + a2 * a2 - 1.0) <= 1e-12:  # plain floats: no numpy call
            _require_unit_amplitudes(g1, g2)

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
    return _read_only(n_up), _read_only(n_dn), _read_only(flip[n_up, n_dn])


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
    # val <= tr up to rounding: capped, val / tr and its root stay <= 1
    val = min(float(np.vdot(t, rho @ t).real), tr)
    return float(np.sqrt(max(0.0, val / tr)))


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
    h = build_h_lambda(1.0, TELEPORT_MODES)
    _read_only(h.mat)
    return h


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

#: A Philox's four-word output buffer, marked empty by ``buffer_pos = 4``.
_EMPTY_BUFFER = _read_only(np.zeros(4, dtype=np.uint64))


class _ThreadPhilox(threading.local):
    """Each thread's Philox and the Generator on it, built on first use.

    Every block row sets the Philox's whole state before it draws, so one
    generator serves every stream of the thread, alive side by side or not.
    """

    def __init__(self):
        self.bits = np.random.Philox(0)  # a seed, not OS entropy; every draw resets the state
        self.gen = np.random.Generator(self.bits)


_PHILOX = _ThreadPhilox()


class _Draws:
    """Draws of the trials ``start, ..., start + n - 1`` of a run: column ``j``
    of the table ``u`` holds draw ``j`` of each trial, one row per trial.

    Block ``k`` of trial ``i`` is numpy's Philox block at counter
    ``i + 1 + k * 2**64``, so block ``k`` of every trial is one
    ``Generator.random`` call on the thread's Philox, set first to the key
    ``(seed, 0)``, the counter words ``[start, k, 0, 0]`` and an empty
    buffer.  Block 0 is drawn up front, later blocks when first read.
    """

    def __init__(self, seed: int, start: int, n: int):
        # uint64 words: from a list numpy rounds words above 2**53 through float
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([start, 0, 0, 0], dtype=np.uint64),
                      "key": np.array([seed, 0], dtype=np.uint64)},
            "buffer": _EMPTY_BUFFER, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        self.u = self._block_row(n)

    def _block_row(self, n: int) -> np.ndarray:
        _PHILOX.bits.state = self._state
        return _PHILOX.gen.random((n, 4))

    def upto(self, stop: int) -> np.ndarray:
        """The table ``u``, with at least ``stop`` draws per trial."""
        while self.u.shape[1] < stop:
            self._state["state"]["counter"][1] = self.u.shape[1] // 4
            self.u = np.hstack([self.u, self._block_row(len(self.u))])
        return self.u


class _TrialStream:
    """One trial's draws in stream order, read as from a ``numpy.random.Generator``."""

    def __init__(self, seed: int, trial: int):
        self._draws, self._used = _Draws(seed, trial, 1), 0

    def random(self, size=None):
        """The next draw as a float, or the next ``prod(size)`` draws shaped ``size``."""
        first = self._used
        self._used += 1 if size is None else int(np.prod(size))
        u = self._draws.upto(self._used)[0, first:self._used]
        return float(u[0]) if size is None else u.reshape(size)


def trial_rng(seed: int, trial: int) -> _TrialStream:
    """Trial ``trial``'s stream of run seed ``seed``, for the step-by-step path.

    Its ``random()`` returns the doubles the batch engine reads for that
    trial, in order.
    """
    return _TrialStream(seed, trial)


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
        return _json_text(self.to_dict()) + "\n"


def _assemble_report(variant, seed, g, chunks) -> TeleportReport:
    """Fold ``(branches, rounds, fidelities)`` chunks into a report in O(chunk)
    memory.  The fidelity sum is pairwise over chunks, from a stack of
    ``(k, sum of 2**k chunks)``; one chunk gives exactly ``np.mean``, and
    runs no numpy call beyond its two ``bincount``s, ``min`` and ``sum``."""
    chunks = iter(chunks)
    branches, rounds, fids = next(chunks)
    n, min_fid, fid_sums = len(branches), fids.min(), [(0, fids.sum())]
    per_branch = np.bincount(branches, minlength=len(BRANCHES))
    per_round = np.bincount(rounds)
    for branches, rounds, fids in chunks:
        n += len(branches)
        per_branch += np.bincount(branches, minlength=len(BRANCHES))
        counts = np.bincount(rounds, minlength=len(per_round))
        counts[:len(per_round)] += per_round
        per_round = counts
        min_fid = np.minimum(min_fid, fids.min())
        level, x = 0, fids.sum()
        while fid_sums and fid_sums[-1][0] == level:
            level, x = level + 1, fid_sums.pop()[1] + x
        fid_sums.append((level, x))
    histogram = {r: c for r, c in enumerate(per_round.tolist()) if c}
    return TeleportReport(
        variant=variant,
        trials=n,
        seed=seed,
        g1=(g.g1.real, g.g1.imag) if g is not None else None,
        g2=(g.g2.real, g.g2.imag) if g is not None else None,
        backend=default_backend(),
        rng=_RNG_SCHEME,
        branch_counts=dict(zip(_BRANCH_KEYS, per_branch.tolist())),
        rounds_histogram=histogram,
        mean_rounds=sum(r * c for r, c in histogram.items()) / n,
        min_fidelity=float(min_fid),
        mean_fidelity=float(sum(partial for _, partial in reversed(fid_sums))) / n,
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


def _block_diagonal(*blocks) -> np.ndarray:
    """The matrices ``blocks`` along the diagonal of one zero matrix."""
    rows, cols = (np.cumsum([0] + [b.shape[axis] for b in blocks]) for axis in (0, 1))
    out = np.zeros((rows[-1], cols[-1]), dtype=np.result_type(*blocks))
    for b, r, c in zip(blocks, rows, cols):
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
    return out


def _folded(rows) -> dict:
    """Stacked matrices of the engine for the states ``x @ rows``.

    The bases are the cached ones of :mod:`edgeteleport.measure`, stacked side
    by side.  Alice's gates and the ``(k, 64)`` array ``rows`` are folded into
    her columns, so the engine's state rows are ``(m, k)`` arrays of
    coordinates ``x``.  Bob's amplitudes in a branch are ``x @ [up | sign * dn]``
    and his overlap with ``g`` is ``(conj(g) (x) x) @ [up; sign * dn]``: their
    squared norms need only the Gram matrices, so the setup keeps triangular
    factors with the same Gram matrices, by branch in ``BRANCHES`` order.

    All three sit in one block-diagonal ``factor``, which takes the rows
    ``z = [conj(g) (x) x | x]`` to Bob's overlap coordinates, then Alice's
    sector coordinates and Bob's trace coordinates.  The 0/1 ``sums``
    (:func:`_indicator`, block by block) add their squares into Bob's four
    overlaps, Alice's sector probabilities and Bob's four traces.
    """
    modes = TELEPORT_MODES
    sectors = spin_sector_bases(modes, ALICE_WIRES)
    u_alice = gate_unitary(hadamard("c"), modes) @ gate_unitary(cnot("c", "a"), modes)
    # x @ blocks[s] = sector-s coordinates of x @ rows after Alice's two gates
    blocks = [rows @ (u_alice.T @ basis.conj()) for _, _, basis in sectors]
    n_up, n_dn, signs = _b_reduction_indices(modes)
    branch_of_sector = np.full(len(sectors), -1, dtype=np.int64)
    trace, overlap = [None] * len(BRANCHES), [None] * len(BRANCHES)
    for s, (j, m, basis) in enumerate(sectors):
        if (j, m) not in BRANCHES:
            continue
        b = branch_of_sector[s] = BRANCHES.index((j, m))
        corrected = basis
        for spec in bob_correction(j, m):
            corrected = gate_unitary(spec, modes) @ corrected
        up, dn = blocks[s] @ corrected[n_up].T, blocks[s] @ (signs[:, None] * corrected[n_dn]).T
        # R^dag of M^dag = QR has the Gram matrix M M^dag of M
        trace[b] = np.linalg.qr(np.hstack([up, dn]).conj().T, mode="r").conj().T
        overlap[b] = np.linalg.qr(np.vstack([up, dn]).conj().T, mode="r").conj().T
    alice = np.hstack(blocks)
    used = np.any(alice != 0, axis=0)  # 8 of 64 columns for the two inputs
    return {
        # Fortran order, as the QR factors come: the one-row product then keeps their bits
        "factor": np.asfortranarray(_block_diagonal(np.hstack(overlap),
                                                    np.hstack([alice[:, used], *trace]))),
        "sums": _block_diagonal(_indicator(overlap), _indicator(blocks)[np.repeat(used, 2)],
                                _indicator(trace)),
        "branch_of_sector": branch_of_sector,
        "sector_labels": tuple((j, m) for j, m, _ in sectors),
    }


def _certify_relaxation(h, inputs, integer_part):
    """Raise unless relaxing a cold-atom miss by ``h`` restores its input.

    A trial with input ``g`` misses with the state ``g @ y``, where
    ``y = inputs - integer_part`` is the miss span.  ``relax_to_ground``
    rescales each a-b sector's ground component by ``w / wy``; if, in every
    sector the span reaches, the ground-weight form of ``y`` is a constant
    ``kappa`` times its sector-weight form, then ``w / wy = kappa**-0.5`` for
    every ``g`` and the relaxation is linear on the span, ``g @ y -> g @ r``.
    If also ``r = c * inputs``, every miss relaxes, after normalisation, to
    its initial state up to the global phase of ``c``, so each restart round
    measures the state of round 1.  Both checks hold to a relative residual
    of 1e-12, for every input at once; the bounds on ``kappa`` and ``c`` are
    ``relax_to_ground``'s orthogonality and zero-vector checks.
    """
    y = inputs - integer_part
    total = np.vdot(y, y).real
    r = np.zeros_like(y)
    for basis, ground in sector_ground_spaces(h):
        a, b = y @ basis.conj(), y @ ground.conj()  # sector and ground coordinates
        w, wy = a @ a.conj().T, b @ b.conj().T
        if np.trace(w).real <= _WEIGHT_FLOOR**2 * total:
            continue  # below relax_to_ground's weight floor for every input
        kappa = np.trace(wy).real / np.trace(w).real
        residual = np.abs(wy - kappa * w).max() / np.trace(w).real
        if residual > 1e-12 or kappa <= _ORTHO_TOL**2:
            raise RuntimeError(
                "relaxation of the cold-atom miss span is not certified: the "
                "ground-weight form is not a positive multiple of the sector-weight "
                f"form (relative residual {residual:.3g}, kappa {kappa:.3g})"
            )
        r += b @ ground.T / np.sqrt(kappa)
    c = np.vdot(inputs, r) / len(inputs)  # the inputs are orthonormal rows
    residual = np.abs(r - c * inputs).max() / max(np.abs(r).max(), _WEIGHT_FLOOR)
    if residual > 1e-12 or abs(c) <= _WEIGHT_FLOOR:
        raise RuntimeError(
            "relaxation of the cold-atom miss span is not certified: the relaxed "
            f"span is not a multiple of the inputs (relative residual {residual:.3g}, "
            f"|c| {abs(c):.3g})"
        )


@functools.lru_cache(maxsize=None)
def _kernel_setup(variant: str) -> dict:
    """Stacked arrays consumed by the batch engine, built once per variant.

    Electronic trials fold the two inputs (``[g1, g2] @ inputs``).  Cold-atom
    trials fold their integer-class parts, ``integer_part``: once
    :func:`_certify_relaxation` has shown that every miss relaxes back to the
    initial state, a trial stops, whatever its round, in the state
    ``g @ integer_part / sqrt(p)`` with ``p = |g @ integer_part|^2``.
    """
    t0 = time.perf_counter()
    inputs = np.stack([prepare_initial(SpinAmplitudes(1.0, 0.0), variant).amps,
                       prepare_initial(SpinAmplitudes(0.0, 1.0), variant).amps])
    if variant == "electronic":
        setup = _folded(inputs)
    else:
        integer_part = inputs @ integer_class_projector(TELEPORT_MODES, ALICE_WIRES).T
        _certify_relaxation(_relax_hamiltonian(), inputs, integer_part)
        setup = {**_folded(integer_part), "integer_part": integer_part}
    # a DEBUG line reaches a handler only if the program imported logging to
    # set one up; the package does not import it (4 ms and 0.5 MiB)
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(__name__).debug(
            "built the %s kernel setup in %.6f s", variant, time.perf_counter() - t0)
    return {k: _read_only(v) if isinstance(v, np.ndarray) else v for k, v in setup.items()}


def _run_trials_batched(g, variant, n, seed, max_rounds):
    """Yield ``(branches, rounds, fidelities)`` arrays, one chunk at a time.

    The engine gets the distinct inputs of a chunk and each trial's row among
    them: one row shared by every trial for a fixed ``g``, one row per trial
    for Haar-random inputs.
    """
    setup = _kernel_setup(variant)
    first = 0 if g is not None else 3  # a Haar trial's first three draws make g
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        draws = _Draws(seed, start, size)
        if g is None:
            g_rows, of = _haar_amplitudes(draws.u[:, :3]).T, np.arange(size)
        else:
            g_rows, of = np.array([[g.g1, g.g2]]), np.zeros(size, dtype=np.int64)
        if variant == "electronic":
            branches, fids = _kernels.electronic_batch(setup, g_rows, of, draws.u[:, first])
            yield branches, np.ones(size, dtype=np.int64), fids
            continue
        yield _kernels.coldatom_batch(setup, g_rows, of, draws.upto, first, max_rounds)


def _integer(value, name: str) -> int:
    """``value`` as a Python int: a numpy integer becomes the equal int, and a
    float or bool, which would run some other integer's trials, raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


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
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    max_rounds = _integer(max_rounds, "max_rounds")
    if n < 1:
        raise ValueError("need at least one trial")
    if n > 2**64:
        raise ValueError("need at most 2**64 trials: a trial's index is one 64-bit word of "
                         "its stream counter, and trial 2**64 would read trial 0's block 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if resource is not None and variant != "mixed":
        raise ValueError(f"a resource state applies to the mixed variant only, not {variant!r}")
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
