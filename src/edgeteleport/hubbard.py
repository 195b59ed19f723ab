"""Edge-mode coupling between two wires: Coulomb penalty plus weak hopping.

The a-b subsystem is governed by

    H = (e2/2) (n_a - 1)^2 + (e2/2) (n_b - 1)^2 + H_hop
    H_hop = lam * sum_s (a_s^dag b_s + b_s^dag a_s)

For e2 >> lam the fourfold-degenerate neutral ground space of the Coulomb
terms is split by the hopping so the spin singlet ends up lowest, a 4 lam^2 /
e2 below the (exactly unperturbed) triplet.  The second-order singlet energy
is -4 lam^2 / e2; in this two-site model the sector reduces to a 2x2 problem
with the exact closed form E0 = (e2 - sqrt(e2^2 + 16 lam^2)) / 2, so the
residual beyond second order is 16 lam^4 / e2^3 + O(lam^6).

With e2 = 0 (weakly interacting atoms in an optical trap rather than
electrons) the ground state is the two bonding orbitals filled,
(a_up^dag - b_up^dag)(a_dn^dag - b_dn^dag)|vac>/2, at energy -2 lam.

Treating the edge pair in isolation presumes the induced splittings
(~ lam^2/e2, or lam itself at e2 = 0) stay well inside the chain's band gap
|t - t'|; that condition is the user's to meet and is not enforced here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    AB_MODES,
    HermitianOperator,
    ModeSet,
    StateVector,
    _built_once,
    _observable_diagonal,
    annihilation_matrix,
    creation_matrix,
    inner_product,
    singlet_state,
)
from .measure import Sector, symmetry_sectors

#: Levels closer than this (times the spectral scale) are treated as degenerate.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class CouplingParams:
    e2: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.e2) and self.e2 >= 0):
            raise ValueError("e2 must be a finite non-negative energy")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be a finite non-negative energy")

    @property
    def regime(self) -> str:
        return "cold-atom" if self.e2 == 0 else "electronic"


@_built_once()
def _unit_terms(modes: ModeSet, wire1: str, wire2: str) -> tuple:
    """The hopping at lam = 1 (entries 0 and +-1) and each wire's charge squared, built once."""
    modes.check_wires((wire1, wire2))
    hop = np.zeros((modes.dim, modes.dim))
    for spin in ("up", "dn"):
        i, j = modes.index(wire1, spin), modes.index(wire2, spin)
        term = creation_matrix(modes, i) @ annihilation_matrix(modes, j)
        hop += term + term.T
    return hop, [_observable_diagonal(modes, "charge", (wire,)) ** 2 for wire in (wire1, wire2)]


def build_h_lambda(lam: float, modes: ModeSet, wire1: str = "a", wire2: str = "b") -> HermitianOperator:
    """Spin-conserving hopping between the two edge wires: every entry is +-lam
    or +0.0 (``+ 0.0`` turns ``0 * -1`` into the +0.0 that a sum of terms gives)."""
    return HermitianOperator(modes, lam * _unit_terms(modes, wire1, wire2)[0] + 0.0,
                             label=f"H_hop({wire1},{wire2})")


def build_h_int(params: CouplingParams, modes: ModeSet,
                wire1: str = "a", wire2: str = "b") -> HermitianOperator:
    """Coulomb charging terms on both wires plus ``build_h_lambda``'s hopping.

    Both come from ``_unit_terms``, built once per wire pair, and only the sum
    takes ``HermitianOperator``'s check; its entries have the bits, signed
    zeros included, of the charging terms added to the hopping operator's
    diagonal.
    """
    hop, (q1, q2) = _unit_terms(modes, wire1, wire2)
    mat = params.lam * hop + 0.0  # build_h_lambda's entries
    np.fill_diagonal(mat, mat.diagonal() + 0.5 * params.e2 * q1 + 0.5 * params.e2 * q2)
    return HermitianOperator(modes, mat, label=f"H_int({wire1},{wire2})")


@dataclass(frozen=True)
class GroundState:
    energy: float
    states: tuple[StateVector, ...]
    degenerate: bool

    @property
    def state(self) -> StateVector:
        return self.states[0]


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    ph = vec[k] / abs(vec[k])
    return vec / ph


def _matching_sectors(sectors, sector) -> list[Sector]:
    q, j, m = sector
    out = []
    for s in sectors:
        if q is not None and s.charge != q:
            continue
        if j is not None and abs(s.j - j) > 1e-9:
            continue
        if m is not None and abs(s.m - m) > 1e-9:
            continue
        out.append(s)
    return out


@_built_once()
def _sector_span(modes: ModeSet, q, j, m) -> tuple | None:
    """``(basis, basis^dag, basis basis^dag)`` of the a-b sectors matching
    ``(q, j, m)``, built once per mode set and sector; ``None`` when none match."""
    matching = _matching_sectors(symmetry_sectors(modes, AB_MODES.wires), (q, j, m))
    if not matching:
        return None
    basis = np.column_stack([s.basis for s in matching])
    adjoint = basis.conj().T
    return basis, adjoint, basis @ adjoint


def ground_state(h: HermitianOperator, sector=None) -> GroundState:
    """Lowest eigenpair of ``h``, optionally restricted to a symmetry sector.

    ``sector`` is a ``(charge, j, m)`` triple of the a-b wires; entries may
    be ``None`` to leave that quantum number unrestricted.  The sector's basis
    and projector are built once per mode set and sector (``_sector_span``)
    and shared read-only; every call still checks that the projector commutes
    with ``h`` (to 1e-10 of its largest entry), as ``h`` can be any operator,
    and raises ``ValueError`` for a sector that matches none.  When the lowest
    level is degenerate (within ``DEGENERACY_TOL`` times the spectral scale)
    an orthonormal basis of the ground space is returned with the flag set.
    Each returned vector has its largest-magnitude amplitude rotated to the
    positive real axis.
    """
    if sector is None:
        basis = None
        block = h.mat
    else:
        q, j, m = sector
        span = _sector_span(h.modes, q, j, m)
        if span is None:
            raise ValueError(f"empty sector {sector!r}")
        basis, adjoint, proj = span
        scale = max(1.0, float(np.abs(h.mat).max()))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            if np.abs(h.mat @ proj - proj @ h.mat).max() > 1e-10 * scale:
                raise ValueError("sector projector does not commute with the Hamiltonian")
            block = adjoint @ h.mat @ basis
    if not np.all(np.isfinite(block)):
        raise ValueError(f"Hamiltonian block of sector {sector!r} is not finite")
    evals, evecs = np.linalg.eigh(block)
    if not np.all(np.isfinite(evals)):
        raise ValueError("eigenvalues overflow")
    scale = max(1.0, float(np.abs(evals).max()))
    keep = evals <= evals[0] + DEGENERACY_TOL * scale
    cols = evecs[:, keep]
    if basis is not None:
        cols = basis @ cols
    states = tuple(
        StateVector(h.modes, _fix_phase(cols[:, k])) for k in range(cols.shape[1])
    )
    return GroundState(float(evals[0]), states, degenerate=len(states) > 1)


@dataclass(frozen=True)
class PerturbativeCheck:
    e0_exact: float
    e0_perturbative: float
    deviation: float


def _perturbative_energy(params: CouplingParams) -> float:
    """-4 lam^2 / e2, checked; its regime warning names the caller of its caller."""
    if params.e2 <= 0:
        raise ValueError("perturbative comparison requires e2 > 0")
    try:
        e0_pert = -4.0 * params.lam**2 / params.e2
    except OverflowError:
        e0_pert = -np.inf
    if not np.isfinite(e0_pert):
        raise ValueError(f"-4 lam^2 / e2 overflows at e2={params.e2!r}, lam={params.lam!r}")
    if params.lam > 0.1 * params.e2:
        warnings.warn(
            "lam/e2 > 0.1: outside the strong-Coulomb regime, the quadratic "
            "formula for the ground energy degrades",
            stacklevel=3,
        )
    return e0_pert


def perturbative_check(params: CouplingParams) -> PerturbativeCheck:
    """Exact neutral-sector ground energy against -4 lam^2 / e2.

    The residual scales as lam^4 / e2^3 (closed form above); this returns one
    data point, and a caller fits the quartic coefficient over a lam sweep as
    ``max(deviation * e2**3 / lam**4)``.  Requires e2 > 0 and a finite
    -4 lam^2 / e2; otherwise raises ``ValueError`` naming the coupling.  Past
    lam/e2 = 0.1 it warns, at the caller's line.
    """
    e0_pert = _perturbative_energy(params)
    h = build_h_int(params, AB_MODES)
    e0 = ground_state(h, sector=(0, None, None)).energy
    return PerturbativeCheck(e0, e0_pert, abs(e0 - e0_pert))


@_built_once()
def _ab_singlet() -> StateVector:
    """``singlet_state(AB_MODES)``, built once and shared read-only."""
    return singlet_state(AB_MODES)


def hubbard_report(params: CouplingParams) -> dict:
    """Summary used by the CLI: exact vs perturbative energy, overlaps, gap.

    The neutral and triplet ground states come from ``ground_state`` on the
    sectors' built-once bases, and the overlap is taken with the a-b singlet
    built once (``_ab_singlet``); only ``H_int`` and its two sector
    eigenproblems are computed per call.
    """
    h = build_h_int(params, AB_MODES)
    try:
        neutral = ground_state(h, sector=(0, None, None))
        triplet = ground_state(h, sector=(0, 1.0, 1.0))
    except ValueError as exc:  # LinAlgError is one too
        raise ValueError(f"no ground state at e2={params.e2!r}, lam={params.lam!r}: {exc}") from None
    singlet = _ab_singlet()
    # Under degeneracy report the norm of the singlet's projection instead of
    # a single overlap.
    proj = sum(abs(inner_product(s, singlet)) ** 2 for s in neutral.states)
    singlet_overlap = float(np.sqrt(proj))
    return {
        "e2": params.e2,
        "lambda": params.lam,
        "E0_exact": neutral.energy,
        "E0_perturbative": _perturbative_energy(params) if params.e2 > 0 else None,
        "singlet_overlap": singlet_overlap,
        "triplet_gap": triplet.energy - neutral.energy,
    }
