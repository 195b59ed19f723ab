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
    HermitianOperator,
    ModeSet,
    StateVector,
    apply_annihilation,
    apply_creation,
    basis_state,
    build_observable,
    expectation,
    inner_product,
    normalize,
    overlap,
    singlet_state,
    vacuum_state,
)
from .gates import GateSpec, apply_gate, cnot, gate_unitary, hadamard, iy, spin_rotation
from .hubbard import (
    CouplingParams,
    GroundState,
    build_h_int,
    build_h_lambda,
    ground_state,
    hubbard_report,
    perturbative_check,
)
from .measure import (
    MeasurementOutcome,
    measure_spin,
    measure_spin_class,
    spin_sectors,
    symmetry_sectors,
)
from .protocol import (
    SpinAmplitudes,
    TeleportReport,
    TeleportResult,
    bob_correction,
    bob_fidelity,
    default_backend,
    prepare_initial,
    run_teleport_mixed,
    run_teleport_once,
    run_trials,
)
from .relax import relax_to_ground, relax_to_ground_dm
from .ssh_lattice import (
    SingleParticleLevel,
    WireParams,
    analytic_spectrum,
    band_gap,
    build_hamiltonian,
    numerical_spectrum,
    zero_mode,
)

__version__ = "0.1.0"

__all__ = [
    "AB_MODES",
    "TELEPORT_MODES",
    "CouplingParams",
    "DensityMatrix",
    "GateSpec",
    "GroundState",
    "HermitianOperator",
    "MeasurementOutcome",
    "ModeSet",
    "SingleParticleLevel",
    "SpinAmplitudes",
    "StateVector",
    "TeleportReport",
    "TeleportResult",
    "WireParams",
    "analytic_spectrum",
    "apply_annihilation",
    "apply_creation",
    "apply_gate",
    "band_gap",
    "basis_state",
    "bob_correction",
    "bob_fidelity",
    "build_h_int",
    "build_h_lambda",
    "build_hamiltonian",
    "build_observable",
    "cnot",
    "default_backend",
    "expectation",
    "gate_unitary",
    "ground_state",
    "hadamard",
    "hubbard_report",
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
    "relax_to_ground_dm",
    "run_teleport_mixed",
    "run_teleport_once",
    "run_trials",
    "singlet_state",
    "spin_rotation",
    "spin_sectors",
    "symmetry_sectors",
    "vacuum_state",
    "zero_mode",
]
