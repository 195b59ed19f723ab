import numpy as np
import pytest

from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    StateVector,
    build_observable,
    create,
    expectation,
    normalize,
    singlet_state,
    vacuum_state,
)
from edgeteleport.hubbard import CouplingParams, build_h_int, build_h_lambda
from edgeteleport.gates import apply_gate, cnot, hadamard, iy, spin_rotation
from edgeteleport.measure import measure_spin, measure_spin_class
from edgeteleport.protocol import SpinAmplitudes, bob_fidelity, prepare_initial, run_trials
from edgeteleport.relax import relax_to_ground, relax_to_ground_dm, sector_ground_spaces

MODES = TELEPORT_MODES


def _vac():
    return vacuum_state(MODES)


def doublon_state(g1, g2):
    """(g1 c_up + g2 c_dn)^dag (a doublon + b doublon)|0>/sqrt(2)."""
    vac = _vac()
    pair = (
        create(create(vac, "a", "dn"), "a", "up")
        + create(create(vac, "b", "dn"), "b", "up")
    ) * (1 / np.sqrt(2.0))
    return g1 * create(pair, "c", "up") + g2 * create(pair, "c", "dn")


def bonding_state(g1, g2):
    """(g1 c_up + g2 c_dn)^dag (a_up-b_up)^dag (a_dn-b_dn)^dag |0>/2."""
    vac = _vac()
    prod = 0.5 * (
        create(create(vac, "a", "dn"), "a", "up")
        - create(create(vac, "b", "dn"), "a", "up")
        - create(create(vac, "a", "dn"), "b", "up")
        + create(create(vac, "b", "dn"), "b", "up")
    )
    return g1 * create(prod, "c", "up") + g2 * create(prod, "c", "dn")


H_HOP = build_h_lambda(1.0, MODES)


def test_pinned_doublon_to_bonding_mapping():
    # the exact amplitude-for-amplitude relaxation mapping, c factor included
    g1, g2 = 0.6, 0.8j
    out = relax_to_ground(doublon_state(g1, g2), H_HOP)
    np.testing.assert_allclose(out.amps, bonding_state(g1, g2).amps, atol=1e-12)


def test_ground_state_is_fixed_point():
    state = bonding_state(1 / np.sqrt(2), 1j / np.sqrt(2))
    out = relax_to_ground(state, H_HOP)
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)


def test_unique_sector_state_untouched():
    # a_up^dag b_up^dag|0> is alone in its (charge 0, J=1, m=1) sector
    state = create(create(_vac(), "b", "up"), "a", "up")
    h_int = build_h_int(CouplingParams(1.0, 0.3), MODES)
    out = relax_to_ground(state, h_int)
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)


def test_conservation_and_energy_decrease():
    rng = np.random.default_rng(13)
    h_int = build_h_int(CouplingParams(1.0, 0.25), MODES)
    obs = {kind: build_observable(MODES, kind, ("a", "b"))
           for kind in ("charge", "spin_squared", "spin_z")}
    for _ in range(10):
        z = rng.standard_normal(MODES.dim) + 1j * rng.standard_normal(MODES.dim)
        state = normalize(type(_vac())(MODES, z))
        try:
            out = relax_to_ground(state, h_int)
        except RuntimeError:
            continue  # random vector may hit an empty relaxation target
        for kind, op in obs.items():
            assert abs(expectation(op, out) - expectation(op, state)) < 1e-10, kind
        assert expectation(h_int, out) <= expectation(h_int, state) + 1e-12


def test_idempotent():
    state = doublon_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    once = relax_to_ground(state, H_HOP)
    twice = relax_to_ground(once, H_HOP)
    np.testing.assert_allclose(twice.amps, once.amps, atol=1e-12)


def test_orthogonal_sector_component_raises():
    # the neutral spin-zero excited state (a doublon - b doublon) has zero
    # overlap with the hopping ground space of its sector
    vac = _vac()
    anti = (
        create(create(vac, "a", "dn"), "a", "up")
        - create(create(vac, "b", "dn"), "b", "up")
    ) * (1 / np.sqrt(2.0))
    with pytest.raises(RuntimeError):
        relax_to_ground(anti, H_HOP)


def test_rejects_hamiltonian_touching_other_wires():
    h_bad = build_h_lambda(1.0, MODES, "c", "a")
    state = doublon_state(1.0, 0.0)
    with pytest.raises(ValueError):
        relax_to_ground(state, h_bad)


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


G = SpinAmplitudes.normalized(0.6, 0.8j)


def _after_alice():
    psi = prepare_initial(G, "electronic")
    return apply_gate(hadamard("c"), apply_gate(cnot("c", "a"), psi))


# each step maps a state to (labels, probability or fidelity, post state)
def _measured(u):
    def step(state):
        out = measure_spin(state, ("c", "a"), _FixedUniform(u))
        return (out.j, out.m), out.probability, out.post_state
    return step


def _class_measured(u):
    def step(state):
        cls, post = measure_spin_class(state, ("c", "a"), _FixedUniform(u))
        return cls, None, post
    return step


def _gated(spec):
    return lambda state: (None, None, apply_gate(spec, state))


def _relaxed(state):
    return None, None, relax_to_ground(state, H_HOP)


def _fidelity(state):
    return None, bob_fidelity(state, G), None


_ROTATION = np.array([[np.cos(0.4), -np.exp(-0.3j) * np.sin(0.4)],
                      [np.exp(0.3j) * np.sin(0.4), np.cos(0.4)]])

_STEPS = [
    *[(f"measure_spin-{u}", _after_alice, _measured(u)) for u in (0.1, 0.3, 0.6, 0.9)],
    *[(f"measure_spin_class-{u}", lambda: prepare_initial(G, "coldatom"), _class_measured(u))
      for u in (0.2, 0.8)],
    *[(f"apply_gate-{spec.kind}", lambda: prepare_initial(G, "coldatom"), _gated(spec))
      for spec in (cnot("c", "a"), hadamard("c"), iy("b"), spin_rotation("b", _ROTATION))],
    ("relax_to_ground-real", lambda: doublon_state(0.8, 0.6), _relaxed),
    ("relax_to_ground-complex", lambda: doublon_state(0.6, 0.8j), _relaxed),
    ("bob_fidelity", lambda: _measured(0.1)(_after_alice())[2], _fidelity),
]


@pytest.mark.parametrize("make, step", [pytest.param(m, s, id=i) for i, m, s in _STEPS])
def test_dm_channel_matches_pure_channel(make, step):
    # each step on |psi><psi| gives the outer product of its result on psi
    psi = make()
    label, number, post = step(psi)
    label_dm, number_dm, post_dm = step(DensityMatrix.from_state(psi))
    assert label_dm == label
    if number is not None:
        assert number_dm == pytest.approx(number, abs=1e-12)
    if post is not None:
        assert isinstance(post_dm, DensityMatrix)
        np.testing.assert_allclose(post_dm.mat, np.outer(post.amps, post.amps.conj()), atol=1e-12)


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_tiny_ground_weight_relaxes_as_vector_and_as_density_matrix(eps):
    # a sector state whose ground-space weight fraction is eps**2, far above
    # the 1e-20 orthogonality threshold: both kinds relax onto the ground part
    basis, ground = next((b, g) for b, g in sector_ground_spaces(H_HOP)
                         if g.shape[1] < b.shape[1])
    assert (basis.shape[1], ground.shape[1]) == (8, 4)
    excited = basis - ground @ (ground.conj().T @ basis)
    v = excited[:, np.argmax(np.linalg.norm(excited, axis=0))]
    psi = normalize(StateVector(MODES, v / np.linalg.norm(v) + eps * ground[:, 0]))
    g0 = ground[:, 0]
    out = relax_to_ground(psi, H_HOP)
    out_dm = relax_to_ground_dm(DensityMatrix.from_state(psi), H_HOP)
    assert abs(np.vdot(g0, out.amps)) ** 2 >= 1 - 1e-9
    assert np.vdot(g0, out_dm.mat @ g0).real >= 1 - 1e-9


def test_dm_channel_on_proper_mixture():
    # mixture of the two doublon products relaxes to the pure bonding product
    g1, g2 = 0.6, 0.8
    vac = _vac()
    da = create(create(vac, "a", "dn"), "a", "up")
    db = create(create(vac, "b", "dn"), "b", "up")
    states = [
        g1 * create(da, "c", "up") + g2 * create(da, "c", "dn"),
        g1 * create(db, "c", "up") + g2 * create(db, "c", "dn"),
    ]
    mix = sum(0.5 * np.outer(s.amps, s.amps.conj()) for s in states)
    out = relax_to_ground_dm(DensityMatrix(MODES, mix), H_HOP)
    expected = bonding_state(g1, g2)
    np.testing.assert_allclose(
        out.mat, np.outer(expected.amps, expected.amps.conj()), atol=1e-12
    )


def test_dm_validation_helpers():
    good = DensityMatrix.from_state(singlet_state(AB_MODES)).validate()
    assert float(np.trace(good.mat).real) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityMatrix(AB_MODES, np.eye(16)).validate()  # trace 16


@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((0, 1), np.nan), ((5, 5), np.nan),
                                          ((5, 5), np.inf), ((0, 0), np.inf)])
def test_dm_validation_refuses_non_finite_entries(entry, value):
    mat = np.zeros((16, 16), dtype=complex)
    mat[5, 5] = 1.0  # a unit-trace state, then one bad entry
    mat[entry] = value
    with pytest.raises(ValueError, match="^density matrix must be finite$"):
        DensityMatrix(AB_MODES, mat).validate()
    with pytest.raises(ValueError, match="^density matrix must be finite$"):
        run_trials(None, "mixed", 3, resource=DensityMatrix(AB_MODES, mat))
