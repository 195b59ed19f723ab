"""Dissipative relaxation of the two-wire edge subsystem to its ground state.

Only the endpoints of the process matter to the protocol, so the channel is
implemented as complete relaxation: within each joint (charge, J, Jz) sector
of the edge wires a and b, the state's component is projected onto the
lowest-energy eigenspace of the Hamiltonian restricted to that sector and
rescaled back to the component's original weight.  Spectator modes ride
along untouched, phases inside each sector are preserved, and every symmetry
expectation value of the subsystem is conserved exactly because the map is
sector diagonal.  Energy can only decrease.

The channel takes a state vector or a density matrix and returns the same
kind.  A density matrix has each sector block ``P rho P`` relaxed; its
coherences between different sectors are discarded, which still conserves
every sector-diagonal observable.  Thresholds are on weights, ``<x|x>`` or
``tr x`` of a sector component ``x``: one of weight at most
``_WEIGHT_FLOOR**2`` (1e-24) is dropped, and one whose ground-space part
weighs less than ``_ORTHO_TOL**2`` (1e-20) of it is orthogonal to its sector
ground space, has no well-defined relaxation target and raises.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    AB_MODES,
    DensityMatrix,
    HermitianOperator,
    _array,
    _built_once,
    _project,
    _size,
    _weight,
    creation_matrix,
)
from .measure import symmetry_sectors

WIRES = AB_MODES.wires  # a and b relax; every other mode is a spectator

#: Norm ratio and norm behind the weight thresholds: the weights are compared
#: with their squares.
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


def relax_to_ground(state, h: HermitianOperator):
    """Drive the a-b state, a state vector or a density matrix, into the
    sector-wise ground space of ``h``; the result is of the same kind."""
    if state.modes != h.modes:
        raise ValueError("state and Hamiltonian mode sets differ")
    out = np.zeros_like(_array(state))
    for basis, ground in sector_ground_spaces(h):
        x = _project(basis, _array(state))
        w = _weight(x)
        if w <= _WEIGHT_FLOOR**2:
            continue
        y = _project(ground, x)
        if _weight(y) < _ORTHO_TOL**2 * w:
            raise RuntimeError(
                "sector component is orthogonal to its sector ground space; "
                "relaxation target undefined"
            )
        out += y * (_size(x) / _size(y))
    if _weight(out) < _WEIGHT_FLOOR**2:
        raise RuntimeError("relaxation produced the zero state")
    return type(state)(state.modes, out / _size(out))


def relax_to_ground_dm(rho: DensityMatrix, h: HermitianOperator) -> DensityMatrix:
    """:func:`relax_to_ground` on a density matrix."""
    return relax_to_ground(rho, h)
