"""Edge modes of a topologically insulating quantum wire, and spin
teleportation between the edge modes of neighbouring wires.

Exact numerics in small Hilbert spaces: the single-particle chain is dense
linear algebra, the edge subsystem lives in a 64-dimensional Fock space, and
every protocol claim is checked by direct computation.
"""

from .fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    ModeSet,
    StateVector,
    build_observable,
    expectation,
    inner_product,
    normalize,
    overlap,
    singlet_state,
    vacuum_state,
)
from .gates import apply_gate, cnot, gate_unitary, hadamard, iy, spin_rotation
from .hubbard import (
    CouplingParams,
    build_h_int,
    build_h_lambda,
    ground_state,
    perturbative_check,
)
from .measure import measure_spin, measure_spin_class, spin_sectors
from .protocol import (
    SpinAmplitudes,
    default_backend,
    prepare_initial,
    run_teleport_mixed,
    run_teleport_once,
    run_trials,
)
from .relax import relax_to_ground
from .ssh_lattice import (
    WireParams,
    analytic_spectrum,
    band_gap,
    numerical_spectrum,
    zero_mode,
)

__version__ = "0.1.0"

__all__ = [
    "AB_MODES",
    "TELEPORT_MODES",
    "CouplingParams",
    "DensityMatrix",
    "ModeSet",
    "SpinAmplitudes",
    "StateVector",
    "WireParams",
    "analytic_spectrum",
    "apply_gate",
    "band_gap",
    "build_h_int",
    "build_h_lambda",
    "build_observable",
    "cnot",
    "default_backend",
    "expectation",
    "gate_unitary",
    "ground_state",
    "hadamard",
    "inner_product",
    "iy",
    "measure_spin",
    "measure_spin_class",
    "normalize",
    "numerical_spectrum",
    "overlap",
    "perturbative_check",
    "prepare_initial",
    "relax_to_ground",
    "run_teleport_mixed",
    "run_teleport_once",
    "run_trials",
    "singlet_state",
    "spin_rotation",
    "spin_sectors",
    "vacuum_state",
    "zero_mode",
]
