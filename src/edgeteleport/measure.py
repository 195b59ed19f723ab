"""Projective spin measurements on a subset of wires.

Joint eigenspaces of total spin (J^2) and its z component (Jz) over the chosen
wires are found once per (mode set, wires) pair by simultaneous
diagonalization and shared read-only (``fock._built_once``).  Both operators
commute with the wire charge, so basis states are first grouped by the
diagonal (charge, Jz) labels and J^2 is diagonalized inside each block; its
eigenvalues are snapped to j(j+1) on the half-integer ladder.  A snap failure
signals an operator-construction bug and raises immediately.

Sampling follows the Born rule.  Generators are the caller's responsibility
(pass a seeded ``numpy.random.Generator``); a measurement consumes exactly one
uniform draw, which keeps independently seeded trial streams reproducible.

A measurement takes a state vector or a density matrix and returns the same
kind: ``P psi`` or ``P rho P`` for the chosen projector ``P``, normalized, so
a density matrix loses its coherences with the other outcomes.  Weights are
``<psi|P|psi>`` or ``tr(P rho)``; sector listings drop, and the class
measurement never picks, an outcome of weight below ``PROB_FLOOR`` (1e-14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import (
    DensityMatrix,
    ModeSet,
    StateVector,
    _act,
    _array,
    _built_once,
    _observable_diagonal,
    _project,
    _resolve_wires,
    _size,
    _weight,
    build_observable,
)

INTEGER = "integer"
HALF_ODD_INTEGER = "half-odd-integer"

#: Sector listings drop, and class measurements never pick, outcomes below this weight.
PROB_FLOOR = 1e-14

_SNAP_TOL = 1e-6


@dataclass(frozen=True)
class Sector:
    """Joint (charge, j, m) eigenspace of a wire subset."""

    charge: int
    j: float
    m: float
    basis: np.ndarray = field(repr=False)  # (dim, sector_dim), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class MeasurementOutcome:
    j: float
    m: float
    probability: float
    post_state: StateVector | DensityMatrix


def _snap_j(x: float) -> float:
    raw = 0.5 * (np.sqrt(max(0.0, 1.0 + 4.0 * x)) - 1.0)
    j = round(2.0 * raw) / 2.0
    if abs(x - j * (j + 1.0)) > _SNAP_TOL:
        raise RuntimeError(
            f"total-spin eigenvalue {x!r} does not snap to j(j+1) on the half-integer ladder"
        )
    return j


def _wires_key(modes: ModeSet, wires=None) -> tuple:
    return modes, _resolve_wires(modes, wires)  # one entry for every spelling of the wires


@_built_once(key=_wires_key)
def symmetry_sectors(modes: ModeSet, wires=None) -> tuple[Sector, ...]:
    """All (charge, j, m) sectors of the given wires, canonically ordered.

    Ordering is descending j, then descending m, then ascending charge; the
    bases are orthonormal and jointly complete.
    """
    wires_t = _resolve_wires(modes, wires)
    dim = modes.dim
    n = np.arange(dim, dtype=np.int64)
    q = _observable_diagonal(modes, "charge", wires_t).astype(np.int64)
    two_m = (2 * _observable_diagonal(modes, "spin_z", wires_t)).astype(np.int64)
    j2 = build_observable(modes, "spin_squared", wires_t).mat

    collected: dict[tuple[int, float, float], list[np.ndarray]] = {}
    # (q, 2m) blocks in ascending order from a sorted set, not np.unique: the
    # plain np.unique call imports numpy.ma (about 1.5 MiB resident).
    for qv, tm in sorted(set(zip(q.tolist(), two_m.tolist()))):
        idx = n[(q == qv) & (two_m == tm)]
        block = j2[np.ix_(idx, idx)]
        evals, evecs = np.linalg.eigh(block)
        for col, x in enumerate(evals):
            j = _snap_j(float(x.real))
            vec = np.zeros(dim, dtype=np.complex128)
            vec[idx] = evecs[:, col]
            collected.setdefault((qv, j, tm / 2.0), []).append(vec)

    sectors = [
        Sector(qv, j, m, np.column_stack(vecs))
        for (qv, j, m), vecs in collected.items()
    ]
    sectors.sort(key=lambda s: (-s.j, -s.m, s.charge))
    return tuple(sectors)


@_built_once(key=_wires_key)
def spin_sector_bases(modes: ModeSet, wires=None) -> tuple[tuple[float, float, np.ndarray], ...]:
    """(j, m, basis) eigenspaces of (J^2, Jz), merged over charge."""
    merged: dict[tuple[float, float], list[np.ndarray]] = {}
    for s in symmetry_sectors(modes, wires):
        merged.setdefault((s.j, s.m), []).append(s.basis)
    return tuple(
        (j, m, np.column_stack(bases))
        for (j, m), bases in sorted(merged.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
    )


@_built_once(key=_wires_key)
def integer_class_projector(modes: ModeSet, wires=None) -> np.ndarray:
    """Dense projector onto the union of integer-j eigenspaces."""
    p = np.zeros((modes.dim, modes.dim), dtype=np.complex128)
    for j, _, basis in spin_sector_bases(modes, wires):
        if round(2 * j) % 2 == 0:
            p += basis @ basis.conj().T
    return p


def spin_sectors(state, wires=None) -> list[MeasurementOutcome]:
    """Decompose a normalized state over joint (j, m) eigenspaces.

    Outcomes with probability below ``PROB_FLOOR`` are dropped so the listing
    stays canonical.
    """
    outcomes = []
    for j, m, basis in spin_sector_bases(state.modes, wires):
        comp = _project(basis, _array(state))
        p = _weight(comp)
        if p < PROB_FLOOR:
            continue
        outcomes.append(MeasurementOutcome(j, m, p, type(state)(state.modes, comp / _size(comp))))
    return outcomes


def born_index(sums, u) -> int:
    """Born-rule outcome index for the uniform draw ``u``, from the running
    sums ``sums``, ``p_0 + ... + p_k``, of nonnegative weights.

    Outcome ``k`` is chosen when ``u`` first falls below ``sums[k]``.  When
    rounding leaves ``u`` at or above the total, the last running sum, the
    last outcome whose running sum rises above the one before it is chosen,
    so an outcome that adds nothing to the total (probability zero, or below
    an ulp of the sum) is never returned unless all are zero.
    """
    sums = np.asarray(sums, dtype=np.float64)
    hit = u < sums
    if hit.any():
        return int(hit.argmax())
    rises = np.flatnonzero(np.diff(sums, prepend=0.0) > 0.0)
    return int(rises[-1]) if len(rises) else len(sums) - 1


def measure_spin(state, wires, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one (j, m) outcome with its Born probability.

    Consumes one uniform draw from ``rng``; the outcome's probability field
    records the Born weight, and the post state is normalized.
    """
    bases = spin_sector_bases(state.modes, wires)
    comps = [_project(basis, _array(state)) for _, _, basis in bases]
    probs = np.array([_weight(c) for c in comps])
    chosen = born_index(probs.cumsum(), rng.random())
    j, m, _ = bases[chosen]
    post = comps[chosen]
    return MeasurementOutcome(j, m, float(probs[chosen]), type(state)(state.modes, post / _size(post)))


def measure_spin_class(state, wires, rng: np.random.Generator):
    """Coarse measurement: is the wires' total spin integer or half-odd?

    Returns ``(class_label, post_state)`` with the class sampled by the Born
    rule from one uniform draw; a class of weight below ``PROB_FLOOR`` is
    never picked.
    """
    p_int_proj = integer_class_projector(state.modes, wires)
    x = _act(p_int_proj, _array(state))
    p_int = _weight(x)
    if rng.random() >= p_int or p_int < PROB_FLOOR:
        y = _act(np.eye(state.modes.dim) - p_int_proj, _array(state))
        if p_int < PROB_FLOOR or _weight(y) >= PROB_FLOOR:
            return HALF_ODD_INTEGER, type(state)(state.modes, y / _size(y))
    return INTEGER, type(state)(state.modes, x / _size(x))


def measure_spin_class_dm(rho: DensityMatrix, wires, rng: np.random.Generator):
    """:func:`measure_spin_class` on a density matrix."""
    return measure_spin_class(rho, wires, rng)


def measure_spin_dm(rho: DensityMatrix, wires, rng: np.random.Generator):
    """:func:`measure_spin` on a density matrix, as ``(j, m, probability, post_state)``."""
    outcome = measure_spin(rho, wires, rng)
    return outcome.j, outcome.m, outcome.probability, outcome.post_state
