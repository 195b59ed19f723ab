"""Fermionic gates for the teleportation protocol.

All gates are full ``2^M x 2^M`` unitaries that respect electric charge and
fermion-parity superselection: they conserve the electron number of every wire
they touch and act as the identity on all other modes.

Gates are built from :mod:`edgeteleport.fock`'s ladder and number operators,
so every fermionic sign follows fock's single ordering convention.

Spin rotations are the Fock-space lift of a 2x2 unitary ``u`` mixing a wire's
up/dn modes, i.e. the basis change ``f_s^dag -> sum_s' u[s', s] f_s'^dag``:

* empty wire: unchanged,
* singly occupied: ``sum_{s', s} u[s', s] f_s'^dag f_s``,
* doubly occupied: multiplied by ``det(u)``.

The two named rotations are the Hadamard, ``u = [[1, 1], [1, -1]]/sqrt(2)``,
and ``iY``, which sends ``up^dag -> dn^dag`` and ``dn^dag -> -up^dag``
(``u = [[0, -1], [1, 0]]``).

The CNOT applies the rotation ``X = [[0, 1], [1, 0]]`` to the target wire when
the control wire holds exactly one electron with spin dn, and does nothing
when the control electron is spin up.  Control-empty and
control-doubly-occupied branches are extended as the identity; the protocol
only applies the gate after the control wire is known to be singly occupied,
and the identity extension keeps the matrix unitary and
superselection-compatible.  On a doubly occupied target the flip gives
``det(X) = -1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import (
    ModeSet,
    _act,
    _array,
    _built_once,
    _observable_diagonal,
    annihilation_matrix,
    creation_matrix,
)

HADAMARD_2X2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
IY_2X2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

CNOT = "CNOT"
HADAMARD = "HADAMARD"
IY = "IY"
SPIN_ROTATION = "SPIN_ROTATION"


@dataclass(frozen=True)
class GateSpec:
    kind: str
    target: str
    control: str | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (CNOT, HADAMARD, IY, SPIN_ROTATION):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.kind == CNOT) != (self.control is not None):
            raise ValueError("control wire is required for CNOT and only for CNOT")
        if self.kind == SPIN_ROTATION:
            u = np.asarray(self.matrix, dtype=np.complex128)
            if u.shape != (2, 2) or np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-12:
                raise ValueError("spin rotation matrix must be 2x2 unitary")
            object.__setattr__(self, "matrix", u)


def cnot(control: str, target: str) -> GateSpec:
    return GateSpec(CNOT, target=target, control=control)


def hadamard(wire: str) -> GateSpec:
    return GateSpec(HADAMARD, target=wire)


def iy(wire: str) -> GateSpec:
    return GateSpec(IY, target=wire)


def spin_rotation(wire: str, matrix: np.ndarray) -> GateSpec:
    return GateSpec(SPIN_ROTATION, target=wire, matrix=matrix)


def _rotation_unitary(modes: ModeSet, wire: str, u: np.ndarray) -> np.ndarray:
    pair = tuple(enumerate(modes.wire_indices(wire)))  # (spin index, mode index)
    occ = _observable_diagonal(modes, "number", (wire,))
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    mat = np.diag(np.where(occ == 2, det, 1.0 + 0j))
    single = occ == 1
    mat[:, single] = sum(
        u[t, s] * (creation_matrix(modes, mt) @ annihilation_matrix(modes, ms))[:, single]
        for t, mt in pair
        for s, ms in pair
    )
    return mat


def _cnot_unitary(modes: ModeSet, control: str, target: str) -> np.ndarray:
    # spin_z = -1/2 exactly when the control holds one dn electron and no up
    sz = _observable_diagonal(modes, "spin_z", (control,))
    flip = _rotation_unitary(modes, target, _PAULI_X)
    return np.where(sz == -0.5, flip, np.eye(modes.dim))


@_built_once(key=lambda spec, modes: (modes, spec.kind, spec.control, spec.target,
                                      None if spec.matrix is None else spec.matrix.tobytes()))
def gate_unitary(spec: GateSpec, modes: ModeSet) -> np.ndarray:
    """The full 2^M unitary matrix of a gate."""
    modes.check_wires([w for w in (spec.control, spec.target) if w is not None])
    if spec.kind == CNOT:
        return _cnot_unitary(modes, spec.control, spec.target)
    if spec.kind == HADAMARD:
        return _rotation_unitary(modes, spec.target, HADAMARD_2X2.astype(np.complex128))
    if spec.kind == IY:
        return _rotation_unitary(modes, spec.target, IY_2X2.astype(np.complex128))
    return _rotation_unitary(modes, spec.target, spec.matrix)


def apply_gate(spec: GateSpec, state):
    """The gate applied to a state vector or a density matrix."""
    return type(state)(state.modes, _act(gate_unitary(spec, state.modes), _array(state)))
