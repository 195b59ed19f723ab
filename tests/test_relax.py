import numpy as np
import pytest

from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    build_observable,
    create,
    expectation,
    normalize,
    singlet_state,
    vacuum_state,
)
from edgeteleport.hubbard import CouplingParams, build_h_int, build_h_lambda
from edgeteleport.relax import relax_to_ground, relax_to_ground_dm

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


def test_dm_channel_matches_pure_channel():
    state = doublon_state(0.8, 0.6)
    rho = DensityMatrix.from_state(state)
    out_dm = relax_to_ground_dm(rho, H_HOP)
    out_pure = relax_to_ground(state, H_HOP)
    np.testing.assert_allclose(
        out_dm.mat, np.outer(out_pure.amps, out_pure.amps.conj()), atol=1e-12
    )


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
