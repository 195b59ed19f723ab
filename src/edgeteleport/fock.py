"""Second-quantized toolkit for a small set of named spin-1/2 fermion modes.

Each mode is a ``(wire, spin)`` pair.  The position of a mode in the
:class:`ModeSet` fixes the fermionic sign convention once and for all: the
occupation-number basis state with integer label ``n`` is

    |n> = (f_0^dag)^{n_0} (f_1^dag)^{n_1} ... (f_{M-1}^dag)^{n_{M-1}} |vac>

with bit ``i`` of ``n`` giving the occupancy of mode ``i``, and a creation
operator acting on mode ``i`` picks up ``(-1)^(number of occupied modes with
index < i)``.  Everything downstream (gates, measurements, relaxation, Bob's
reduced state) builds on the ladder operators and the number, charge and
spin_z observables defined here, so no other module reads occupation bits
and all fermionic signs follow this single convention.

Operators are kept as dense ``2^M x 2^M`` complex matrices; with at most six
modes in play the full space is 64-dimensional and dense algebra is both the
simplest and the fastest option.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SPIN_UP = "up"
SPIN_DN = "dn"
_SPINS = (SPIN_UP, SPIN_DN)

Mode = tuple[str, str]


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x.astype(np.uint64)).astype(np.int64)


@dataclass(frozen=True)
class ModeSet:
    """Ordered collection of (wire, spin) modes defining the Fock space."""

    modes: tuple[Mode, ...]

    def __post_init__(self):
        if len(self.modes) > 10:  # a dense complex operator takes 16 MiB at 10 modes
            raise ValueError("at most 10 modes are supported: operators are dense 2^M x 2^M")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate (wire, spin) mode")
        for wire, spin in self.modes:
            if spin not in _SPINS:
                raise ValueError(f"spin must be one of {_SPINS}, got {spin!r}")
        # cache keys hash a ModeSet on every hit; the nested tuple is hashed once
        object.__setattr__(self, "_hash", hash(self.modes))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a string's hash differs between processes
        return ModeSet, (self.modes,)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @functools.cached_property
    def wires(self) -> tuple[str, ...]:
        seen: list[str] = []
        for wire, _ in self.modes:
            if wire not in seen:
                seen.append(wire)
        return tuple(seen)

    def index(self, wire: str, spin: str) -> int:
        try:
            return self.modes.index((wire, spin))
        except ValueError:
            raise KeyError(f"mode ({wire}, {spin}) not in mode set") from None

    def wire_indices(self, wire: str) -> tuple[int, int]:
        """(up, dn) mode indices of a wire."""
        return self.index(wire, SPIN_UP), self.index(wire, SPIN_DN)

    def check_wires(self, wires: Iterable[str]):
        known = self.wires
        for w in wires:
            if w not in known:
                raise KeyError(f"unknown wire label {w!r}; have {known}")


#: Canonical ordering used by the teleportation setup.  All golden states and
#: sign-sensitive tests are stated in this order.
TELEPORT_MODES = ModeSet(
    (
        ("c", SPIN_UP),
        ("c", SPIN_DN),
        ("a", SPIN_UP),
        ("a", SPIN_DN),
        ("b", SPIN_UP),
        ("b", SPIN_DN),
    )
)

#: Two-wire edge subsystem on its own (16-dimensional space).
AB_MODES = ModeSet(
    (
        ("a", SPIN_UP),
        ("a", SPIN_DN),
        ("b", SPIN_UP),
        ("b", SPIN_DN),
    )
)


@dataclass(frozen=True)
class StateVector:
    """Pure state over the occupation-number basis of a :class:`ModeSet`."""

    modes: ModeSet
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        # contiguous, so that the finiteness check can view it as floats
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.shape != (self.modes.dim,):
            raise ValueError(f"amplitude vector must have length {self.modes.dim}")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amps", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __add__(self, other: "StateVector") -> "StateVector":
        _require_same_modes(self, other)
        return StateVector(self.modes, self.amps + other.amps)

    def __sub__(self, other: "StateVector") -> "StateVector":
        _require_same_modes(self, other)
        return StateVector(self.modes, self.amps - other.amps)

    def __mul__(self, scalar) -> "StateVector":
        return StateVector(self.modes, self.amps * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class HermitianOperator:
    """Observable or Hamiltonian on the Fock space."""

    modes: ModeSet
    mat: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        if m.shape != (self.modes.dim, self.modes.dim):
            raise ValueError("operator shape does not match mode set")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > 1e-12 * scale:
            raise ValueError(f"operator {self.label!r} is not Hermitian")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state; Hermitian, unit trace, positive semidefinite."""

    modes: ModeSet
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        if m.shape != (self.modes.dim, self.modes.dim):
            raise ValueError("density matrix shape does not match mode set")
        if not np.isfinite(m).all():
            raise ValueError("density matrix must be finite")
        object.__setattr__(self, "mat", m)

    def validate(self, tol: float = 1e-12) -> "DensityMatrix":
        m = self.mat
        if not np.isfinite(m).all():
            raise ValueError("density matrix must be finite")
        if np.abs(m - m.conj().T).max() > tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(m).min() < -tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self

    @staticmethod
    def from_state(state: StateVector) -> "DensityMatrix":
        return DensityMatrix(state.modes, np.outer(state.amps, state.amps.conj()))


def _require_same_modes(x, y):
    if x.modes != y.modes:
        raise ValueError("mode sets do not match")


def vacuum_state(modes: ModeSet) -> StateVector:
    amps = np.zeros(modes.dim, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(modes, amps)


def basis_state(modes: ModeSet, occupied: Sequence[int] | int) -> StateVector:
    """Basis state |n>, from an integer label or a list of occupied modes."""
    if isinstance(occupied, (int, np.integer)):
        n = int(occupied)
    else:
        n = 0
        for i in occupied:
            n |= 1 << int(i)
    if not 0 <= n < modes.dim:
        raise ValueError("occupation label out of range")
    amps = np.zeros(modes.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(modes, amps)


# ---------------------------------------------------------------------------
# Arrays built once and shared
# ---------------------------------------------------------------------------

def _read_only(x):
    """``x`` with every array it holds marked read-only, through tuples, lists,
    dict values and dataclass fields: every caller of a cache shares them."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, list)):
        for item in x:
            _read_only(item)
    elif isinstance(x, dict):
        _read_only(list(x.values()))
    elif dataclasses.is_dataclass(x):
        _read_only([getattr(x, f.name) for f in dataclasses.fields(x)])
    return x


def _built_once(key=lambda *args: args):
    """Decorator: build the result once per ``key(*args, **kwargs)`` (by default
    the positional arguments), mark its arrays read-only and return that shared
    object on every later call; a build that raises stores nothing.  In a program
    that imports ``logging``, each build logs one DEBUG line on its module's
    logger with the key and build time; the package never imports ``logging``."""
    def decorate(build):
        cache = {}

        @functools.wraps(build)
        def built_once(*args, **kwargs):
            k = key(*args, **kwargs)
            if k in cache:
                return cache[k]
            t0 = time.perf_counter()
            value = _read_only(build(*args, **kwargs))
            seconds = time.perf_counter() - t0
            if "logging" in sys.modules:  # %.200r: a key may hold a matrix's bytes
                sys.modules["logging"].getLogger(build.__module__).debug(
                    "built %s for key %.200r in %.6f s", build.__qualname__, k, seconds)
            return cache.setdefault(k, value)

        return built_once

    return decorate


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------

@_built_once(key=lambda modes, mode: (modes.n_modes, mode))
def creation_matrix(modes: ModeSet, mode: int) -> np.ndarray:
    """Dense matrix of f_mode^dag (real, signed half-permutation)."""
    if not 0 <= mode < modes.n_modes:
        raise IndexError(f"mode index {mode} out of range")
    dim = 1 << modes.n_modes
    n = np.arange(dim, dtype=np.int64)
    empty = (n >> mode) & 1 == 0
    src = n[empty]
    dst = src | (1 << mode)
    signs = np.where(_popcount(src & ((1 << mode) - 1)) % 2 == 0, 1.0, -1.0)
    mat = np.zeros((dim, dim))
    mat[dst, src] = signs
    return mat


def annihilation_matrix(modes: ModeSet, mode: int) -> np.ndarray:
    return creation_matrix(modes, mode).T


def apply_creation(state: StateVector, mode: int) -> StateVector:
    """f_mode^dag |state>; the zero vector is a legal result."""
    return StateVector(state.modes, creation_matrix(state.modes, mode) @ state.amps)


def create(state: StateVector, wire: str, spin: str) -> StateVector:
    return apply_creation(state, state.modes.index(wire, spin))


# ---------------------------------------------------------------------------
# Inner products and expectations
# ---------------------------------------------------------------------------

def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    _require_same_modes(x, y)
    return complex(np.vdot(x.amps, y.amps))


def overlap(x: StateVector, y: StateVector) -> float:
    """|<x|y>| for comparisons that must ignore global phase."""
    return abs(inner_product(x, y))


def normalize(x: StateVector) -> StateVector:
    n = x.norm()
    if n < 1e-15:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(x.modes, x.amps / n)


def expectation(op: HermitianOperator, state: StateVector) -> float:
    _require_same_modes(op, state)
    return float(np.vdot(state.amps, op.mat @ state.amps).real)


# ---------------------------------------------------------------------------
# One step, either kind of state
# ---------------------------------------------------------------------------
# A step reads a state through these, on the amplitudes x of a StateVector or
# the matrix x of a DensityMatrix, and so is written once for both kinds.

def _array(state: StateVector | DensityMatrix) -> np.ndarray:
    return state.mat if isinstance(state, DensityMatrix) else state.amps


def _act(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``op x``, or ``op x op^dag`` for a matrix ``x``."""
    return op @ x if x.ndim == 1 else op @ x @ op.conj().T


def _project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` projected onto the span of the orthonormal columns ``basis``."""
    return _act(basis, _act(basis.conj().T, x))


def _weight(x: np.ndarray) -> float:
    """Born weight: ``<x|x>``, or the trace of a matrix ``x``."""
    return float(np.vdot(x, x).real if x.ndim == 1 else np.trace(x).real)


def _size(x: np.ndarray) -> float:
    """What ``x`` is divided by to normalise it: its norm, or a matrix's trace."""
    return float(np.linalg.norm(x) if x.ndim == 1 else np.trace(x).real)


# ---------------------------------------------------------------------------
# Symmetry observables
# ---------------------------------------------------------------------------

def _wire_mask(modes: ModeSet, wires: Iterable[str]) -> int:
    mask = 0
    for w in wires:
        iu, idn = modes.wire_indices(w)
        mask |= (1 << iu) | (1 << idn)
    return mask


def _mask_bits(modes: ModeSet, wires: Iterable[str], spin: str) -> int:
    mask = 0
    for w in wires:
        mask |= 1 << modes.index(w, spin)
    return mask


def _number_diag(modes: ModeSet, mask: int) -> np.ndarray:
    n = np.arange(modes.dim, dtype=np.int64)
    return _popcount(n & mask).astype(np.float64)


def _resolve_wires(modes: ModeSet, wires) -> tuple[str, ...]:
    if wires is None:
        return modes.wires
    if isinstance(wires, str):
        wires = (wires,)
    wires = tuple(wires)
    modes.check_wires(wires)
    return wires


@_built_once(key=lambda modes, kind, wires=None: (modes, kind, _resolve_wires(modes, wires)))
def _observable_diagonal(modes: ModeSet, kind: str, wires=None) -> np.ndarray:
    """Real diagonal of a diagonal observable of :func:`build_observable`.

    Built once per (modes, kind, wires) as a shared read-only length-``2^M``
    vector; the gates, sector labels and charging term read these labels, so
    no dense matrix is kept for them.
    """
    wires_t = _resolve_wires(modes, wires)
    if kind == "number":
        return _number_diag(modes, _wire_mask(modes, wires_t))
    if kind == "charge":
        return _number_diag(modes, _wire_mask(modes, wires_t)) - len(wires_t)
    if kind == "parity":
        n = np.arange(modes.dim, dtype=np.int64)
        return np.where(_popcount(n) % 2 == 0, 1.0, -1.0)
    if kind == "spin_z":
        return 0.5 * (_number_diag(modes, _mask_bits(modes, wires_t, SPIN_UP))
                      - _number_diag(modes, _mask_bits(modes, wires_t, SPIN_DN)))
    raise ValueError(f"unknown observable kind {kind!r}")


@_built_once()
def _spin_squared_matrix(modes: ModeSet, wires: tuple[str, ...]) -> np.ndarray:
    """J^2 = Jz^2 + (J+ J- + J- J+)/2 summed over the given wires."""
    dim = modes.dim
    jz = np.diag(_observable_diagonal(modes, "spin_z", wires)).astype(np.complex128)
    jp = np.zeros((dim, dim), dtype=np.complex128)
    for w in wires:
        iu, idn = modes.wire_indices(w)
        jp += creation_matrix(modes, iu) @ annihilation_matrix(modes, idn)
    jm = jp.conj().T
    return jz @ jz + 0.5 * (jp @ jm + jm @ jp)


def build_observable(modes: ModeSet, kind: str, wires=None) -> HermitianOperator:
    """Named symmetry observable on a subset of wires.

    kind is one of ``number`` (electrons on the wires), ``charge`` (electron
    count minus one per wire, the ion charge), ``parity`` ((-1)^N over all
    modes), ``spin_z``, ``spin_squared``.
    """
    wires_t = _resolve_wires(modes, wires)
    if kind == "spin_squared":
        mat = _spin_squared_matrix(modes, wires_t)
    else:
        mat = np.diag(_observable_diagonal(modes, kind, wires_t)).astype(np.complex128)
    return HermitianOperator(modes, mat, label=f"{kind}({','.join(wires_t)})")


def singlet_state(modes: ModeSet, wire1: str = "a", wire2: str = "b") -> StateVector:
    """(w1_up^dag w2_dn^dag + w2_up^dag w1_dn^dag)|vac>/sqrt(2), spin zero."""
    vac = vacuum_state(modes)
    x = create(create(vac, wire2, SPIN_DN), wire1, SPIN_UP)
    y = create(create(vac, wire1, SPIN_DN), wire2, SPIN_UP)
    return (x + y) * (1.0 / np.sqrt(2.0))
