"""Dissipative relaxation of the two-wire edge subsystem to its ground state.

Only the endpoints of the process matter to the protocol, so the channel is
implemented as complete relaxation: within each joint (charge, J, Jz) sector
of the edge wires a and b, the state's component is projected onto the
lowest-energy eigenspace of the Hamiltonian restricted to that sector and
rescaled back to the component's original weight.  Spectator modes ride
along untouched, phases inside each sector are preserved, and every symmetry
expectation value of the subsystem is conserved exactly because the map is
sector diagonal.  Energy can only decrease.

A sector component orthogonal to its sector ground space has no well-defined
relaxation target and raises.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    AB_MODES,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _built_once,
    creation_matrix,
)
from .measure import symmetry_sectors

WIRES = AB_MODES.wires  # a and b relax; every other mode is a spectator

#: Minimum surviving weight fraction before a sector is declared orthogonal
#: to its ground space.
_ORTHO_TOL = 1e-10
_WEIGHT_FLOOR = 1e-12


def _check_support(h: HermitianOperator) -> None:
    """Require h to act as the identity on every mode outside ``WIRES``."""
    modes = h.modes
    scale = max(1.0, float(np.abs(h.mat).max()))
    for i, (wire, _) in enumerate(modes.modes):
        if wire in WIRES:
            continue
        c = creation_matrix(modes, i)
        if np.abs(h.mat @ c - c @ h.mat).max() > 1e-12 * scale:
            raise ValueError(
                f"Hamiltonian acts on mode {modes.modes[i]} outside wires {WIRES}"
            )


@_built_once(key=lambda h: (h.modes, h.mat.tobytes()))
def sector_ground_spaces(h: HermitianOperator):
    """Per-sector (sector basis, ground-space basis) pairs for ``h``.

    Built once per Hamiltonian matrix content and shared read-only; the
    protocol re-relaxes with the same Hamiltonian every restart round.
    """
    _check_support(h)
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(h.mat)).max()))
    pairs = []
    for s in symmetry_sectors(h.modes, WIRES):
        block = s.basis.conj().T @ h.mat @ s.basis
        evals, evecs = np.linalg.eigh(block)
        keep = evals <= evals[0] + 1e-9 * scale
        pairs.append((s.basis, s.basis @ evecs[:, keep]))
    return tuple(pairs)


def relax_to_ground(state: StateVector, h: HermitianOperator) -> StateVector:
    """Drive the a-b state into the sector-wise ground space of ``h``."""
    if state.modes != h.modes:
        raise ValueError("state and Hamiltonian mode sets differ")
    out = np.zeros_like(state.amps)
    for basis, ground in sector_ground_spaces(h):
        x = basis @ (basis.conj().T @ state.amps)
        w = np.linalg.norm(x)
        if w <= _WEIGHT_FLOOR:
            continue
        y = ground @ (ground.conj().T @ x)
        wy = np.linalg.norm(y)
        if wy < _ORTHO_TOL * w:
            raise RuntimeError(
                "sector component is orthogonal to its sector ground space; "
                "relaxation target undefined"
            )
        out += y * (w / wy)
    total = np.linalg.norm(out)
    if total < _WEIGHT_FLOOR:
        raise RuntimeError("relaxation produced the zero vector")
    return StateVector(state.modes, out / total)


def relax_to_ground_dm(rho: DensityMatrix, h: HermitianOperator) -> DensityMatrix:
    """Density-matrix relaxation channel.

    Sector blocks are projected onto their ground spaces and rescaled to
    their original sector weights; coherences between different sectors are
    discarded, which conserves every sector-diagonal observable.
    """
    if rho.modes != h.modes:
        raise ValueError("state and Hamiltonian mode sets differ")
    out = np.zeros_like(rho.mat)
    for basis, ground in sector_ground_spaces(h):
        x = basis @ (basis.conj().T @ rho.mat @ basis) @ basis.conj().T
        w = float(np.trace(x).real)
        if w <= _WEIGHT_FLOOR:
            continue
        y = ground @ (ground.conj().T @ x @ ground) @ ground.conj().T
        wy = float(np.trace(y).real)
        if wy < _ORTHO_TOL * w:
            raise RuntimeError(
                "sector component is orthogonal to its sector ground space; "
                "relaxation target undefined"
            )
        out += y * (w / wy)
    tr = float(np.trace(out).real)
    if tr < _WEIGHT_FLOOR:
        raise RuntimeError("relaxation produced the zero operator")
    return DensityMatrix(rho.modes, out / tr)
