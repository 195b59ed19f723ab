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
    of the a-b space with nonzero singlet weight.  Round 1 hits with the singlet
    weight, in the electronic state; a miss relaxes to the cold-atom state.

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
vectorised engine (:func:`electronic_batch`, :func:`coldatom_batch`) and the
step-by-step path make the same decisions in every trial.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    StateVector,
    _built_once,
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
    PROB_FLOOR,
    integer_class_projector,
    measure_spin,
    measure_spin_class,
    spin_sector_bases,
)
from .relax import _ORTHO_TOL, _WEIGHT_FLOOR, relax_to_ground, sector_ground_spaces

ALICE_WIRES = ("c", "a")
BOB_WIRE = "b"

#: Canonical branch order: the four (J, Jz) outcomes of Alice's measurement.
BRANCHES = ((1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0))

#: The report's ``branch_counts`` keys, in ``BRANCHES`` order.
_BRANCH_KEYS = tuple(f"{j:g},{m:g}" for j, m in BRANCHES)

DEFAULT_MAX_ROUNDS = 64

VARIANTS = ("electronic", "coldatom", "mixed")

#: Name and version of the per-trial random-stream scheme, recorded in every
#: report (any change to the draws a trial consumes needs a new version), and
#: the trial engine's name, every report's ``backend`` (:func:`default_backend`).
_RNG_SCHEME, _BACKEND = "philox4x64-10/v2", "numpy"


def _modulus(z):
    """``abs(z)``, but inf where a Python complex's ``abs`` raises ``OverflowError``."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _require_unit_amplitudes(g1, g2):
    """Raise unless every (g1, g2) pair is finite with unit norm to 1e-12.

    Takes complex scalars or arrays; a NaN or infinite amplitude fails the
    norm test too, and is then reported as such.
    """
    a1, a2 = _modulus(g1), _modulus(g2)
    # products, not ** 2: a float power raises OverflowError above ~1e154
    if np.all(abs(a1 * a1 + a2 * a2 - 1.0) <= 1e-12):
        return
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ValueError("spin amplitudes must be finite")
    raise ValueError("|g1|^2 + |g2|^2 must equal 1")


def _json_block(brackets: str, items: list[str]) -> str:
    """A list or dict of already encoded ``items`` as one report field, in
    ``json.dumps(..., indent=2)`` layout; empty, it is ``brackets`` alone."""
    if not items:
        return brackets
    return brackets[0] + "\n    " + ",\n    ".join(items) + "\n  " + brackets[1]


def _json_pair(g) -> str:
    """A ``g1``/``g2`` report field: its floats as a list, or null."""
    return "null" if g is None else _json_block("[]", [*map(float.__repr__, g)])


def _haar_amplitudes(u):
    """Exact Haar-random amplitudes from three uniforms per row of ``u``, as
    the ``(2, n)`` rows ``g1`` and ``g2`` (the transpose of a C-ordered
    ``(n, 2)`` array).

    ``|g1|^2`` of a Haar-random unit vector in C^2 is uniform on [0, 1] and
    the two phases are independent and uniform, so no normal draws (and no
    rejection) are needed: ``g1 = sqrt(u0) e^{2 pi i u1}``,
    ``g2 = sqrt(1 - u0) e^{2 pi i u2}``.
    """
    g = np.sqrt(np.stack([u[:, 0], 1.0 - u[:, 0]], axis=1)) * np.exp(u[:, 1:3] * (2j * np.pi))
    _require_unit_amplitudes(g[:, 0], g[:, 1])
    return g.T


def _require_haar_draws(u):
    """Raise the amplitudes' own error for draws that make ``_haar_amplitudes(u)``
    NaN or infinite: a NaN or infinite draw in any of the three columns, or a
    ``u0`` outside [0, 1].  For every other ``u0``, ``u0 + (1 - u0)`` rounds to 1."""
    u0 = u[:, 0]
    # a NaN or infinite u0 fails the first test too
    if not (np.minimum.reduce(u0) >= 0.0 and np.maximum.reduce(u0) <= 1.0
            and np.logical_and.reduce(np.isfinite(u[:, 1:3]), axis=None)):
        raise ValueError("spin amplitudes must be finite")


@dataclass(frozen=True)
class SpinAmplitudes:
    g1: complex
    g2: complex

    def __post_init__(self):
        g1, g2 = complex(self.g1), complex(self.g2)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        a1, a2 = _modulus(g1), _modulus(g2)
        if not abs(a1 * a1 + a2 * a2 - 1.0) <= 1e-12:  # plain floats: no numpy call
            _require_unit_amplitudes(g1, g2)

    @staticmethod
    def normalized(g1: complex, g2: complex) -> "SpinAmplitudes":
        # Python floats and products: a numpy scalar power warns on overflow,
        # a float product gives inf silently
        a1, a2 = _modulus(complex(g1)), _modulus(complex(g2))
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


#: Bob's gates for each branch, in ``BRANCHES`` order; applied left to right.
_CORRECTIONS = ((iy(BOB_WIRE),), (hadamard(BOB_WIRE), iy(BOB_WIRE)), (), (hadamard(BOB_WIRE),))


def bob_correction(j: float, m: float) -> list[GateSpec]:
    """Bob's gate list for a (J, Jz) that is one of ``BRANCHES``; applied left to right."""
    try:
        return list(_CORRECTIONS[BRANCHES.index((j, m))])
    except ValueError:
        raise ValueError(f"no correction for branch ({j}, {m})") from None


# ---------------------------------------------------------------------------
# Bob's reduced spin state and fidelity
# ---------------------------------------------------------------------------

@_built_once()
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


@_built_once()
def _relax_hamiltonian():
    """Hopping Hamiltonian used as the relaxation target (scale is irrelevant:
    the sector ground spaces do not depend on lam > 0)."""
    return build_h_lambda(1.0, TELEPORT_MODES)


def _teleport(state, g: SpinAmplitudes, rng, max_rounds: int, restarts: bool) -> TeleportResult:
    """The protocol's steps on a state vector or a density matrix: with
    ``restarts``, the class measurement, relaxing the a-b pair after each miss;
    then Alice's gates and (J, Jz) measurement, and Bob's corrections."""
    rounds = 1
    while restarts:
        cls, state = measure_spin_class(state, ALICE_WIRES, rng)
        if cls == INTEGER:
            break
        if rounds >= max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        state = relax_to_ground(state, _relax_hamiltonian())
        rounds += 1
    state = apply_gate(cnot("c", "a"), state)
    state = apply_gate(hadamard("c"), state)
    outcome = measure_spin(state, ALICE_WIRES, rng)
    state = outcome.post_state
    for spec in bob_correction(outcome.j, outcome.m):
        state = apply_gate(spec, state)
    return TeleportResult((outcome.j, outcome.m), rounds, bob_fidelity(state, g), state)


def run_teleport_once(g: SpinAmplitudes, variant: str, rng: np.random.Generator,
                      max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportResult:
    """One protocol run through the step-by-step library path."""
    return _teleport(prepare_initial(g, variant), g, rng, max_rounds, restarts=variant == "coldatom")


@_built_once(key=lambda modes=AB_MODES: modes)
def neutral_spin_zero_basis(modes=AB_MODES) -> np.ndarray:
    """Columns spanning {a doublon, b doublon, a-b singlet} (charge 0, J = 0)."""
    iu_a, idn_a = modes.wire_indices("a")
    iu_b, idn_b = modes.wire_indices("b")
    da = basis_state(modes, [iu_a, idn_a]).amps
    db = basis_state(modes, [iu_b, idn_b]).amps
    s = singlet_state(modes, "a", "b").amps
    return np.column_stack([da, db, s])


def _span_coordinates(resource: DensityMatrix) -> np.ndarray:
    """The resource's 3x3 matrix on :func:`neutral_spin_zero_basis`, checked."""
    if resource.modes != AB_MODES:
        raise ValueError("resource must be given on the a-b mode set")
    resource.validate(tol=1e-10)
    span = neutral_spin_zero_basis(AB_MODES)
    r3 = span.conj().T @ resource.mat @ span
    if np.abs(span @ r3 @ span.conj().T - resource.mat).max() > 1e-10:
        raise ValueError("resource has support outside the neutral spin-zero span")
    if r3[2, 2].real <= 1e-12:
        raise ValueError("resource has zero singlet weight and cannot teleport")
    return r3


def run_teleport_mixed(g: SpinAmplitudes, resource: DensityMatrix,
                       rng: np.random.Generator,
                       max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportResult:
    """Teleport with a mixed a-b resource: :func:`run_teleport_once`'s
    cold-atom steps, on a density matrix.

    The resource must live on the charge-neutral spin-zero span of the a-b
    space and carry nonzero singlet weight.
    """
    _span_coordinates(resource)
    chi = np.zeros(4, dtype=np.complex128)
    chi[1] = g.g1  # c_up occupied
    chi[2] = g.g2  # c_dn occupied
    rho = DensityMatrix(TELEPORT_MODES, np.kron(resource.mat, np.outer(chi, chi.conj())))
    return _teleport(rho, g, rng, max_rounds, restarts=True)


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
        words = np.array([start, 0, 0, 0, seed, 0], dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": words[:4], "key": words[4:]},
                       "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.u = self._block_row(n)

    def _block_row(self, n: int) -> np.ndarray:
        _PHILOX.bits.state = self._state
        return _PHILOX.gen.random((n, 4))

    def upto(self, stop: int) -> np.ndarray:
        """The table ``u``, with at least ``stop`` draws per trial."""
        have = self.u.shape[1] // 4
        if 4 * have < stop:
            rows = [self.u]
            for k in range(have, -(-stop // 4)):
                self._state["state"]["counter"][1] = k
                rows.append(self._block_row(len(self.u)))
            self.u = np.hstack(rows)
        return self.u


# The vectorised engine: a call runs at most ``_CHUNK`` trials on the law
# :func:`_certify_law` proves, ideal teleportation (Bennett et al., PRL 70, 1895
# (1993)), and returns each trial's branch and rounds, as its oracles
# :func:`run_teleport_once` and :func:`run_teleport_mixed` decide them on the same draws.

#: Trials per call at most; a call slices its row indices and electronic rounds from these.
_CHUNK = 1024
_ROWS, _ONE_ROUND = _read_only((np.arange(_CHUNK), np.ones(_CHUNK, dtype=np.int64)))
#: The running sums of the four branch weights over ``n``, as :func:`_certify_law` certifies them.
_QUARTERS = _read_only(np.array([[0.25], [0.5], [0.75]]))


def _measure_and_correct(u, s):
    """Each trial's index into ``BRANCHES``: the running sum ``_QUARTERS * s``
    its draw ``u[i]`` falls in (``s = n`` for an electronic trial, 1 once a
    class hit has scaled the state by ``1 / sqrt(p)``)."""
    return np.add.reduce(u >= s * _QUARTERS, axis=0, dtype=np.intp)


def electronic_batch(n, u_branch):
    """Branch index and rounds (all 1) of each electronic trial, for ``n`` and
    branch draws ``u_branch`` (:func:`_measure_and_correct`)."""
    return _measure_and_correct(u_branch, n), _ONE_ROUND[:len(u_branch)]


def coldatom_batch(n, draws, first, max_rounds, p1=None):
    """Branch index and rounds of each cold-atom or mixed trial.

    ``n`` is as in :func:`_measure_and_correct`.  Column ``first + r - 1`` of
    the chunk's table ``draws.u`` decides class measurement ``r`` and
    ``first + rounds`` the branch.  A trial stops in the first round whose draw
    falls below ``p = n / 2``, or ``p1`` in round 1 if given (a mixed run's).
    Rounds are counted over the block rows drawn so far, and one more is drawn
    only while some trial has no hit and fewer than ``max_rounds`` class draws
    exist.  Hitting ``max_rounds`` raises, as in the step-by-step path.
    """
    p, u = 0.5 * n, draws.u
    while True:
        c = min(u.shape[1] - first, max_rounds)  # class draws drawn so far
        # a True column after them: a trial with no hit gets c + 1 rounds
        hit = np.ones((len(u), c + 1), dtype=bool)
        np.less(u[:, first:first + c], p, out=hit[:, :c])
        if p1 is not None:
            np.less(u[:, first], p1, out=hit[:, 0])
        rounds = hit.argmax(axis=1) + 1
        del hit  # freed before the draw table grows below
        longest = int(rounds.max())
        if longest <= c:
            break
        if c == max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        u = draws.upto(u.shape[1] + 1)
    u = draws.upto(first + longest + 1)
    # a hit's state is scaled by 1 / sqrt(p): its running sums are _QUARTERS * 1
    return _measure_and_correct(u[_ROWS[:len(u)], first + rounds], 1.0), rounds


class _TrialStream:
    """One trial's draws in stream order, read as from a ``numpy.random.Generator``."""

    def __init__(self, seed: int, trial: int):
        self._draws, self._used = _Draws(seed, trial, 1), 0

    def random(self, size=None):
        """The next draw as a float, or the next ``prod(size)`` draws shaped ``size``."""
        first = self._used  # np.empty refuses a bad size as Generator.random does, before a draw
        self._used += 1 if size is None else np.empty(size, dtype=bool).size
        u = self._draws.upto(self._used)[0, first:self._used]
        return float(u[0]) if size is None else u.reshape(size)


def trial_rng(seed: int, trial: int) -> _TrialStream:
    """Trial ``trial``'s stream of run seed ``seed``, for the step-by-step path.

    Its ``random()`` returns the doubles the batch engine reads for that
    trial, in order.  Both arguments are integers in ``[0, 2**64)``, as in
    :func:`run_trials`.
    """
    seed, trial = _integer(seed, "seed"), _integer(trial, "trial")
    _require_word(seed, "seed", "key")
    _require_word(trial, "trial", "counter")
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
        d = {name: getattr(self, name) for name in _REPORT_FIELDS}
        for key in ("g1", "g2"):
            d[key] = list(d[key]) if d[key] is not None else None
        d["branch_counts"] = dict(self.branch_counts)
        d["rounds_histogram"] = {str(k): v for k, v in sorted(self.rounds_histogram.items())}
        return d

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"`` for fields of their
        declared types, filled into one template.  A non-finite float raises
        json's ``ValueError``, as ``allow_nan=False`` does; ``json.dumps`` runs
        its pure-Python encoder when ``indent`` is set, at twice the time."""
        g1, g2, hist = self.g1, self.g2, self.rounds_histogram
        floats = (*(g1 or ()), *(g2 or ()), self.mean_rounds, self.min_fidelity,
                  self.mean_fidelity)
        if not all(map(math.isfinite, floats)):
            bad = next(v for v in floats if not math.isfinite(v))
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        return _REPORT_JSON % (
            _json_str(self.variant), int.__repr__(self.trials), int.__repr__(self.seed),
            _json_pair(g1), _json_pair(g2), _json_str(self.backend), _json_str(self.rng),
            _json_block("{}", [f"{_json_str(k)}: {v:d}" for k, v in self.branch_counts.items()]),
            _json_block("{}", [f'"{k:d}": {v:d}' for k, v in sorted(hist.items())]),
            float.__repr__(self.mean_rounds), float.__repr__(self.min_fidelity),
            float.__repr__(self.mean_fidelity))


_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(TeleportReport))
#: The report's JSON text with one ``%s`` per field, in ``_REPORT_FIELDS`` order.
_REPORT_JSON = "{\n" + ",\n".join(f"  {_json_str(name)}: %s" for name in _REPORT_FIELDS) + "\n}\n"


def _assemble_report(variant, seed, g, fidelity, chunks) -> TeleportReport:
    """Fold ``(branches, rounds)`` chunks into a report in O(chunk) memory.
    ``fidelity`` is the run's, shared by all of its trials, so it is both the
    report's minimum and its mean."""
    n, per_branch, per_round = 0, np.zeros(len(BRANCHES), np.intp), np.zeros(0, np.intp)
    for branches, rounds in chunks:
        n += len(branches)
        per_branch += np.bincount(branches, minlength=len(BRANCHES))
        counts = np.bincount(rounds, minlength=len(per_round))
        counts[:len(per_round)] += per_round
        per_round = counts
    counts = per_round.tolist()
    return TeleportReport(
        variant=variant,
        trials=n,
        seed=seed,
        g1=(g.g1.real, g.g1.imag) if g is not None else None,
        g2=(g.g2.real, g.g2.imag) if g is not None else None,
        backend=_BACKEND,
        rng=_RNG_SCHEME,
        branch_counts=dict(zip(_BRANCH_KEYS, per_branch.tolist())),
        rounds_histogram=dict(filter(operator.itemgetter(1), enumerate(counts))),
        mean_rounds=sum(map(operator.mul, range(len(counts)), counts)) / n,
        min_fidelity=fidelity,
        mean_fidelity=fidelity,
    )


def default_backend() -> str:
    """Name of the trial engine, recorded in every report's ``backend`` field."""
    return _BACKEND


def _folded(rows) -> dict:
    """Gram matrices, over the two inputs, of what a trial of the states ``g @ rows`` reads.

    ``rows`` is ``(2, 64)``, one row per input ``g = (1, 0)`` and ``(0, 1)``.
    After Alice's gates, folded into her cached sector bases, ``g @ block``
    are a sector's coordinates, of weight ``g M g^dag`` for the Gram matrix
    ``M = block @ block^dag``; a sector outside ``BRANCHES`` above 1e-12 of
    the fold's weight raises.  Bob's amplitudes in a branch are ``g @ v[s]``
    for his spin ``s`` (``v = [up, sign * dn]``), so he holds the unnormalised
    spin state ``sum_ij g_i conj(g_j) R[(i, j), :]`` of the map
    ``R[(i, j), (s, t)] = sum_k v[s, i, k] conj(v[t, j, k])``.  Returns
    Alice's branch Gram matrices (``branch``, ``(4, 2, 2)``) and Bob's maps
    (``bob``, ``(4, 4, 4)``), in ``BRANCHES`` order.
    """
    modes = TELEPORT_MODES
    u_alice = gate_unitary(hadamard("c"), modes) @ gate_unitary(cnot("c", "a"), modes)
    bases = {(j, m): basis for j, m, basis in spin_sector_bases(modes, ALICE_WIRES)}
    # g @ blocks[(j, m)] = sector coordinates of g @ rows after Alice's two gates
    blocks = {s: rows @ (u_alice.T @ basis.conj()) for s, basis in bases.items()}
    grams = {s: block @ block.conj().T for s, block in blocks.items()}
    weight = np.abs(rows @ rows.conj().T).max()
    for (j, m), gram in grams.items():
        if (j, m) not in BRANCHES and np.abs(gram).max() > 1e-12 * weight:
            raise RuntimeError(f"Alice can measure (J, Jz) = ({j:g}, {m:g}), "
                               "which has no correction for Bob")
    n_up, n_dn, signs = _b_reduction_indices(modes)
    bob = []
    for branch, specs in zip(BRANCHES, _CORRECTIONS):
        corrected = bases[branch]
        for spec in specs:
            corrected = gate_unitary(spec, modes) @ corrected
        v = blocks[branch] @ np.stack([corrected[n_up].T, (signs[:, None] * corrected[n_dn]).T])
        bob.append(np.einsum("sik,tjk->ijst", v, v.conj()).reshape(4, 4))
    return {"branch": np.array([grams[b] for b in BRANCHES]), "bob": np.array(bob)}


#: Absolute tolerance of the law's certificate, on Gram entries and on a constant's snap.
_LAW_TOL = 1e-12


def _refuse(why):
    raise RuntimeError(f"ideal teleportation is not certified: {why}")


def _eighths(name, x) -> np.ndarray:
    """``8 x`` rounded to whole numbers, or raise, naming the first entry of
    ``x`` farther than ``_LAW_TOL`` from the grid ``m / 8``."""
    m = np.round(8 * np.real(x))
    off = np.abs(x - m / 8) > _LAW_TOL
    if off.any():
        _refuse(f"a {name} constant, {np.real(x)[off][0].item()!r}, is off the grid m / 8")
    return m


def _certify_law(grams: dict) -> None:
    """Raise, naming the first check that fails, unless ``grams`` state ideal
    teleportation, the law the engine runs from the constants ``_QUARTERS`` and 1/2.

    ``grams`` are :func:`_folded`'s, with a cold-atom fold's class Gram
    matrix ``class``.  Each of Alice's must be ``c I2`` (no coherence, equal
    diagonal), a weight ``c n`` for the squared norm ``n = |g1|^2 + |g2|^2``,
    with ``c`` on the grid ``m / 8``, to ``_LAW_TOL``.  Then, in eighths: the
    class constant is 1/2, each branch constant is 1/4 of the hit constant
    (1, or the class constant), and each of Bob's maps is ``c_b I4`` with
    ``c_b = m / 8 > 0``: he holds ``c_b g g^dag``, so his overlap with ``g``
    is ``n`` times his trace.
    """
    eighths = {}
    for name in [k for k in ("branch", "class") if k in grams]:
        gram = grams[name].reshape(-1, 2, 2)
        for gap, why in ((np.abs(gram[:, 0, 1]).max(), "coherence reaches"),
                         (np.abs(gram[:, 0, 0] - gram[:, 1, 1]).max(), "diagonal entries differ by")):
            if gap > _LAW_TOL:
                _refuse(f"the {name} Gram matrices are not multiples of I2: their {why} {gap:.3g}")
        eighths[name] = _eighths(name, gram[:, 0, 0]).tolist()
    hit = eighths.get("class", [8.0])[0]
    if "class" in grams and hit != 4:
        _refuse(f"a round's class constant is {hit / 8!r}, not 1/2")
    weights = eighths["branch"]
    if any(4 * m != hit for m in weights):
        _refuse(f"the branch weights {[m / 8 for m in weights]} are not 1/4 each of {hit / 8!r}")
    for branch, r in zip(BRANCHES, grams["bob"]):
        m = round(2 * np.trace(r).real)  # c_b = tr(R) / 4, in eighths
        gap = np.abs(r - m / 8 * np.eye(4)).max()
        if m <= 0 or gap > _LAW_TOL:
            _refuse(f"Bob's map in branch {branch} is not c I4 with c = m / 8 > 0: it is "
                    f"{m / 8!r} I4 off by {gap:.3g}")


def _require_kappa(kappa, residual=0.0):
    """Raise unless a miss's ground weight is ``kappa > _ORTHO_TOL**2`` times its
    sector weight, the ground-weight form that multiple to a relative ``residual``."""
    orthogonal = kappa <= _ORTHO_TOL**2
    if residual > 1e-12 or orthogonal:
        why = "; the span is orthogonal to its sector ground space" if orthogonal else ""
        raise RuntimeError(
            "relaxation of the miss span is not certified: the ground-weight form is "
            "not a positive multiple of the sector-weight form (relative residual "
            f"{residual:.3g}, kappa {kappa:.3g}{why})"
        )


def _certify_relaxation(inputs, miss, doublons) -> np.ndarray:
    """Raise unless relaxing a round-1 miss restores its input; return the doublon law ``G``.

    A miss leaves the a-b pair on the orthonormal columns ``doublons``.  Doublon
    ``k`` times c_up and c_dn is the unit fold ``y_k``: a doublon block ``rho``
    misses with ``sum_kl rho_kl (g @ y_k)(g @ y_l)^dag``, and the cold-atom
    ``miss`` (``inputs - integer_part``) is the fold ``v @ y``, the block
    ``v v^dag``.  In the one a-b sector the folds reach, ``relax_to_ground``
    rescales the ground part by ``w / wy``.  There the folds' Gram matrices over
    (fold, input) are ``I (x) I`` for the sector weight and must be ``G (x) I``
    for the ground weight: then ``wy / w = tr(G rho) / tr rho`` for every input,
    the ``kappa`` that :func:`_require_kappa` bounds, here for the cold-atom
    block.  If also each fold relaxes to ``c_k * inputs``, every miss relaxes
    to its initial state, so each restart round measures round 1's state.
    Residuals are relative, to 1e-12; weight of the folds off their sector, or
    of ``miss`` off the folds, above ``_WEIGHT_FLOOR**2`` of theirs raises, as
    does ``relax_to_ground``'s zero vector.  ``G`` is snapped to the grid ``m / 8``.
    """
    k = doublons.shape[1]
    folds = np.einsum("ak,ic->kiac", doublons, np.eye(4)[1:3]).reshape(k, 2, -1)
    basis, ground = max(sector_ground_spaces(_relax_hamiltonian()),
                        key=lambda pair: np.linalg.norm(folds @ pair[0].conj()))
    b = (folds @ ground.conj()).reshape(2 * k, -1)  # ground coordinates, per (fold, input)
    gram = b.conj() @ b.T
    law = np.trace(gram.reshape(k, 2, k, 2), axis1=1, axis2=3) / 2
    v = np.einsum("kia,ia->k", folds.conj(), miss) / 2  # on orthonormal input rows
    kappa = np.vdot(v, law @ v).real / np.vdot(v, v).real
    _require_kappa(kappa, np.abs(gram - np.kron(law, np.eye(2))).max())
    outside = [folds - (folds @ basis.conj()) @ basis.T, miss - np.tensordot(v, folds, 1)]
    total = 2 * k + np.vdot(miss, miss).real
    if sum(np.vdot(x, x).real for x in outside) > _WEIGHT_FLOOR**2 * total:
        raise RuntimeError("relaxation of the miss span is not certified: the misses reach "
                           "a sector outside the certified ones")
    r = b.reshape(k, 2, -1) @ ground.T  # each fold's ground part
    c = np.einsum("ij,kij->k", inputs.conj(), r) / len(inputs)
    residual = np.abs(r - c[:, None, None] * inputs).max() / max(np.abs(r).max(), _WEIGHT_FLOOR)
    if residual > 1e-12 or np.linalg.norm(c) <= _WEIGHT_FLOOR:
        raise RuntimeError(
            "relaxation of the miss span is not certified: the relaxed span is not "
            f"a multiple of the inputs (relative residual {residual:.3g}, "
            f"|c| {np.linalg.norm(c):.3g})"
        )
    return _eighths("doublon-law", law) / 8  # exact: an orthogonal block's kappa is then 0


@_built_once()
def _inputs(variant: str) -> np.ndarray:
    """The initial states of the inputs ``g = (1, 0)`` and ``(0, 1)``, as rows."""
    return np.stack([prepare_initial(SpinAmplitudes(*e), variant).amps for e in np.eye(2)])


@_built_once()
def _kernel_setup(variant: str) -> dict:
    """The batch engine's setup, built once per variant (``fock._built_once``):
    the folded Gram matrices, certified by :func:`_certify_law`.

    Electronic trials fold the two inputs (``[g1, g2] @ inputs``).  Cold-atom
    trials fold their integer-class parts, ``integer_part``: once
    :func:`_certify_relaxation` has shown that every miss relaxes back to the
    initial state, a trial stops, whatever its round, in the state
    ``g @ integer_part / sqrt(p)``, with ``p = g C g^dag`` for the class Gram
    matrix ``C = integer_part @ integer_part^dag``.  Its doublon
    law ``G`` (``doublon_law``) is all a mixed run reads of that certificate.
    """
    inputs = _inputs(variant)
    if variant == "electronic":
        grams = _folded(inputs)
        _certify_law(grams)
        return grams
    integer_part = inputs @ integer_class_projector(TELEPORT_MODES, ALICE_WIRES).T
    grams = {**_folded(integer_part), "class": integer_part @ integer_part.conj().T}
    _certify_law(grams)
    doublons = neutral_spin_zero_basis(AB_MODES)[:, :2]
    return {**grams, "doublon_law": _certify_relaxation(inputs, inputs - integer_part, doublons)}


def _run_trials_batched(g, variant, n, seed, max_rounds, norm, resource=None):
    """Yield ``(branches, rounds)`` chunks, two arrays: each trial's decisions.

    The engine gets the run's one squared norm ``norm``, which :func:`run_trials`
    also turns into the run's fidelity, and a Haar chunk only checks its draws.
    A cold-atom chunk draws up front the block rows its longest trial almost
    always needs: at class probability 1/2 the longest of ``size`` trials takes
    about ``log2(size)`` rounds.  A mixed run checks its resource (``None`` is
    the a-b singlet) and runs on the cold-atom
    engine, round 1 at the singlet weight ``p1`` under ``measure_spin_class``'s
    floor (2.0, a certain hit, where the doublon weight is below ``PROB_FLOOR``).
    Its misses relax to the cold-atom state unless ``tr(G rho_dd) / tr rho_dd`` fails
    :func:`_require_kappa`; then its first chunk with a round-1 miss raises.
    """
    setup = _kernel_setup("coldatom" if variant == "mixed" else variant)
    first = 3 if g is None else 0  # a Haar trial's first three draws make g
    if variant == "mixed":
        r3 = _span_coordinates(resource) if resource is not None else np.diag([0.0, 0.0, 1.0])
        singlet, doublons = r3[2, 2].real, np.trace(r3[:2, :2]).real
        if doublons * norm >= PROB_FLOOR:
            p1, kappa = singlet * norm, np.vdot(setup["doublon_law"], r3[:2, :2]).real / doublons
        else:
            p1, kappa = 2.0, 1.0  # a certain hit: no miss to relax
    for start in range(0, n, _CHUNK):
        size = min(_CHUNK, n - start)
        draws = _Draws(seed, start, size)
        if g is None:
            _require_haar_draws(draws.u)
        if variant == "electronic":
            yield electronic_batch(norm, draws.u[:, first])
        elif variant == "coldatom":
            draws.upto(first + size.bit_length() + 3)
            yield coldatom_batch(norm, draws, first, max_rounds)
        else:
            chunk = coldatom_batch(norm, draws, first, max_rounds, p1)
            if kappa <= _ORTHO_TOL**2 and chunk[1].max() > 1:
                _require_kappa(kappa)
            yield chunk


def _integer(value, name: str) -> int:
    """``value`` as a Python int: a numpy integer becomes the equal int, and a
    float or bool, which would run some other integer's trials, raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def _require_word(value: int, name: str, part: str):
    """Raise unless the int ``value`` fits one 64-bit word of the stream's ``part``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    if value >= 2**64:
        raise ValueError(f"{name} must be < 2**64: it is one 64-bit word of the stream {part}")


def warm_up(variant: str = "electronic"):
    """Build the cached matrices a ``variant`` run reads, ahead of timing-sensitive
    runs; a mixed run, on any resource, reads the cold-atom ones."""
    run_trials(SpinAmplitudes(1.0, 0.0), variant, 2, seed=0)


def run_trials(g: SpinAmplitudes | None, variant: str, n: int, seed: int = 0,
               resource: DensityMatrix | None = None,
               max_rounds: int = DEFAULT_MAX_ROUNDS) -> TeleportReport:
    """Aggregate ``n`` independent seeded runs into a report.

    ``g=None`` draws fresh haar-random spin amplitudes per trial.  Reports are
    bitwise reproducible for a fixed seed.  Every variant runs on the
    vectorised engine, which makes the same branch and round decisions as
    :func:`run_teleport_once`, or :func:`run_teleport_mixed` on ``resource``
    (default: the a-b singlet), trial for trial.
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
    _require_word(seed, "seed", "key")

    norm = 1.0  # a Haar input's, u0 + (1 - u0), rounds to 1
    if g is not None:
        a, b, c, d = g.g1.real, g.g1.imag, g.g2.real, g.g2.imag
        norm = (a * a + b * b) + (c * c + d * d)
    chunks = _run_trials_batched(g, variant, n, seed, max_rounds, norm, resource)
    # Bob's fidelity sqrt(overlap / trace) = sqrt(norm), capped at 1 against rounding
    return _assemble_report(variant, seed, g, math.sqrt(min(norm, 1.0)), chunks)
