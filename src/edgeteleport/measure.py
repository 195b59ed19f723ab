"""Projective spin measurements on a subset of wires.

Joint eigenspaces of total spin (J^2) and its z component (Jz) over the chosen
wires are found once per (mode set, wires) pair by simultaneous
diagonalization and cached.  Both operators commute with the wire charge, so
basis states are first grouped by the diagonal (charge, Jz) labels and J^2 is
diagonalized inside each block; its eigenvalues are snapped to j(j+1) on the
half-integer ladder.  A snap failure signals an operator-construction bug and
raises immediately.

Sampling follows the Born rule.  Generators are the caller's responsibility
(pass a seeded ``numpy.random.Generator``); a measurement consumes exactly one
uniform draw, which keeps independently seeded trial streams reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import (
    DensityMatrix,
    ModeSet,
    StateVector,
    _observable_diagonal,
    _read_only,
    _resolve_wires,
    build_observable,
)

INTEGER = "integer"
HALF_ODD_INTEGER = "half-odd-integer"

#: Outcomes with probability below this are dropped from sector listings.
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
    post_state: StateVector


_SECTOR_CACHE: dict[tuple, tuple[Sector, ...]] = {}
_SPIN_SECTOR_CACHE: dict[tuple, tuple[tuple[float, float, np.ndarray], ...]] = {}
_CLASS_PROJ_CACHE: dict[tuple, np.ndarray] = {}


def _snap_j(x: float) -> float:
    raw = 0.5 * (np.sqrt(max(0.0, 1.0 + 4.0 * x)) - 1.0)
    j = round(2.0 * raw) / 2.0
    if abs(x - j * (j + 1.0)) > _SNAP_TOL:
        raise RuntimeError(
            f"total-spin eigenvalue {x!r} does not snap to j(j+1) on the half-integer ladder"
        )
    return j


def symmetry_sectors(modes: ModeSet, wires=None) -> tuple[Sector, ...]:
    """All (charge, j, m) sectors of the given wires, canonically ordered.

    Ordering is descending j, then descending m, then ascending charge; the
    bases are orthonormal and jointly complete.
    """
    wires_t = _resolve_wires(modes, wires)
    key = (modes, wires_t)
    cached = _SECTOR_CACHE.get(key)
    if cached is not None:
        return cached

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
        Sector(qv, j, m, _read_only(np.column_stack(vecs)))
        for (qv, j, m), vecs in collected.items()
    ]
    sectors.sort(key=lambda s: (-s.j, -s.m, s.charge))
    return _SECTOR_CACHE.setdefault(key, tuple(sectors))


def spin_sector_bases(modes: ModeSet, wires=None) -> tuple[tuple[float, float, np.ndarray], ...]:
    """(j, m, basis) eigenspaces of (J^2, Jz), merged over charge."""
    wires_t = _resolve_wires(modes, wires)
    key = (modes, wires_t)
    cached = _SPIN_SECTOR_CACHE.get(key)
    if cached is not None:
        return cached
    merged: dict[tuple[float, float], list[np.ndarray]] = {}
    for s in symmetry_sectors(modes, wires_t):
        merged.setdefault((s.j, s.m), []).append(s.basis)
    out = tuple(
        (j, m, _read_only(np.column_stack(bases)))
        for (j, m), bases in sorted(merged.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
    )
    return _SPIN_SECTOR_CACHE.setdefault(key, out)


def integer_class_projector(modes: ModeSet, wires=None) -> np.ndarray:
    """Dense projector onto the union of integer-j eigenspaces."""
    wires_t = _resolve_wires(modes, wires)
    key = (modes, wires_t)
    cached = _CLASS_PROJ_CACHE.get(key)
    if cached is None:
        p = np.zeros((modes.dim, modes.dim), dtype=np.complex128)
        for j, _, basis in spin_sector_bases(modes, wires_t):
            if round(2 * j) % 2 == 0:
                p += basis @ basis.conj().T
        cached = _CLASS_PROJ_CACHE.setdefault(key, _read_only(p))
    return cached


def spin_sectors(state: StateVector, wires=None) -> list[MeasurementOutcome]:
    """Decompose a normalized state over joint (j, m) eigenspaces.

    Outcomes with probability below ``PROB_FLOOR`` are dropped so the listing
    stays canonical.
    """
    outcomes = []
    for j, m, basis in spin_sector_bases(state.modes, wires):
        comp = basis @ (basis.conj().T @ state.amps)
        p = float(np.vdot(comp, comp).real)
        if p < PROB_FLOOR:
            continue
        outcomes.append(
            MeasurementOutcome(j, m, p, StateVector(state.modes, comp / np.sqrt(p)))
        )
    return outcomes


def born_index(probs, u):
    """Born-rule outcome index for the uniform draw ``u``.

    Outcomes lie on the last axis of ``probs``, which holds nonnegative
    weights; any leading batch axes are shared with ``u``.  Outcome ``k`` is
    chosen when ``u`` first falls below the running sum ``p_0 + ... + p_k``:
    one comparison with the running sums and the index of its first hit.
    When rounding leaves ``u`` at or above the total, the last running sum,
    no sum is hit and the last outcome with nonzero probability is chosen, so
    a zero-probability outcome is never returned unless all are zero; only
    such rows compute it.
    """
    probs = np.asarray(probs, dtype=np.float64)
    hit = np.asarray(u)[..., None] < probs.cumsum(axis=-1)
    chosen = hit.argmax(axis=-1)
    if hit[..., -1].all():
        return chosen
    over = ~hit[..., -1]
    chosen = np.array(chosen)  # a 0-d array for one row: writable, unlike a scalar
    chosen[over] = probs.shape[-1] - 1 - np.argmax(probs[over][..., ::-1] > 0.0, axis=-1)
    return chosen


def measure_spin(state: StateVector, wires, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one (j, m) outcome with its Born probability.

    Consumes one uniform draw from ``rng``; the outcome's probability field
    records the Born weight, and the post state is normalized.
    """
    bases = spin_sector_bases(state.modes, wires)
    comps = [basis @ (basis.conj().T @ state.amps) for _, _, basis in bases]
    probs = np.array([np.vdot(c, c).real for c in comps])
    chosen = int(born_index(probs, rng.random()))
    j, m, _ = bases[chosen]
    p = float(probs[chosen])
    post = StateVector(state.modes, comps[chosen] / np.sqrt(p))
    return MeasurementOutcome(j, m, p, post)


def measure_spin_class(state: StateVector, wires, rng: np.random.Generator):
    """Coarse measurement: is the wires' total spin integer or half-odd?

    Returns ``(class_label, post_state)`` with the class sampled by the Born
    rule from one uniform draw.
    """
    p_int_proj = integer_class_projector(state.modes, wires)
    x = p_int_proj @ state.amps
    p_int = float(np.vdot(x, x).real)
    if rng.random() < p_int:
        return INTEGER, StateVector(state.modes, x / np.sqrt(p_int))
    y = state.amps - x
    p_half = float(np.vdot(y, y).real)
    return HALF_ODD_INTEGER, StateVector(state.modes, y / np.sqrt(p_half))


def measure_spin_class_dm(rho: DensityMatrix, wires, rng: np.random.Generator):
    """Density-matrix version of :func:`measure_spin_class`."""
    p = integer_class_projector(rho.modes, wires)
    x = p @ rho.mat @ p
    p_int = float(np.trace(x).real)
    if rng.random() < p_int:
        return INTEGER, DensityMatrix(rho.modes, x / p_int)
    comp = np.eye(rho.modes.dim) - p
    y = comp @ rho.mat @ comp
    return HALF_ODD_INTEGER, DensityMatrix(rho.modes, y / np.trace(y).real)


def measure_spin_dm(rho: DensityMatrix, wires, rng: np.random.Generator):
    """Born-sampled (j, m) measurement on a density matrix."""
    bases = spin_sector_bases(rho.modes, wires)
    blocks = [basis @ (basis.conj().T @ rho.mat @ basis) @ basis.conj().T
              for _, _, basis in bases]
    probs = np.array([np.trace(b).real for b in blocks])
    chosen = int(born_index(probs, rng.random()))
    j, m, _ = bases[chosen]
    p = float(probs[chosen])
    return j, m, p, DensityMatrix(rho.modes, blocks[chosen] / p)
