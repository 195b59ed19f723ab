import re
import warnings

import numpy as np
import pytest

from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    basis_state,
    build_observable,
    create,
    inner_product,
    singlet_state,
    vacuum_state,
)
from edgeteleport.hubbard import (
    CouplingParams,
    build_h_int,
    build_h_lambda,
    ground_state,
    hubbard_report,
    perturbative_check,
    quartic_coefficient,
)


def exact_neutral_ground_energy(e2, lam):
    """Oracle: closed form of the 2x2 neutral spin-zero problem."""
    return (e2 - np.sqrt(e2**2 + 16 * lam**2)) / 2


def test_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(-1.0, 0.1)
    with pytest.raises(ValueError):
        CouplingParams(1.0, -0.1)
    assert CouplingParams(0.0, 1.0).regime == "cold-atom"
    assert CouplingParams(1.0, 0.01).regime == "electronic"


def test_missing_wires_rejected():
    with pytest.raises(KeyError):
        build_h_int(CouplingParams(1.0, 0.1), AB_MODES, "a", "z")


def test_degenerate_ground_space_at_zero_hopping():
    h = build_h_int(CouplingParams(1.0, 0.0), AB_MODES)
    gs = ground_state(h)
    assert gs.degenerate
    assert len(gs.states) == 4
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    # the ground space is exactly the singly-occupied span a_s^dag b_s'^dag |0>
    vac = vacuum_state(AB_MODES)
    span = [
        create(create(vac, "b", s2), "a", s1)
        for s1 in ("up", "dn")
        for s2 in ("up", "dn")
    ]
    span_mat = np.column_stack([s.amps for s in span])
    proj_span = span_mat @ span_mat.conj().T
    got = np.column_stack([s.amps for s in gs.states])
    proj_got = got @ got.conj().T
    assert np.abs(proj_span - proj_got).max() < 1e-12


def test_ground_state_is_mostly_the_singlet():
    e2, lam = 1.0, 0.01
    h = build_h_int(CouplingParams(e2, lam), AB_MODES)
    gs = ground_state(h)
    assert not gs.degenerate
    # oracle: first-order admixture of the symmetric doublon is 2*lam/e2,
    # so the overlap with the bare singlet is 1/sqrt(1 + (2 lam/e2)^2) exactly
    # (the closed-form eigenvector of the 2x2 block)
    ov = abs(inner_product(singlet_state(AB_MODES), gs.state))
    theta = 0.5 * np.arctan2(4 * lam, e2)
    assert ov == pytest.approx(np.cos(theta), abs=1e-12)
    assert ov > 0.9995


def test_cold_atom_ground_state():
    lam = 0.7
    h = build_h_lambda(lam, AB_MODES)
    gs = ground_state(h)
    assert not gs.degenerate
    assert gs.energy == pytest.approx(-2 * lam, abs=1e-12)
    vac = vacuum_state(AB_MODES)
    bonding = 0.5 * (
        create(create(vac, "a", "dn"), "a", "up")
        - create(create(vac, "b", "dn"), "a", "up")
        - create(create(vac, "a", "dn"), "b", "up")
        + create(create(vac, "b", "dn"), "b", "up")
    )
    assert abs(inner_product(bonding, gs.state)) > 1 - 1e-12
    # spin singlet, like the strong-Coulomb ground state
    j2 = build_observable(AB_MODES, "spin_squared", ("a", "b"))
    assert np.abs(j2.mat @ gs.state.amps).max() < 1e-12


def test_phase_convention_largest_amplitude_real_positive():
    gs = ground_state(build_h_int(CouplingParams(1.0, 0.01), AB_MODES))
    k = int(np.argmax(np.abs(gs.state.amps)))
    assert gs.state.amps[k].real > 0
    assert abs(gs.state.amps[k].imag) < 1e-12


def test_perturbative_check_against_oracle():
    e2, lam = 1.0, 0.01
    chk = perturbative_check(CouplingParams(e2, lam))
    assert chk.e0_perturbative == pytest.approx(-4e-4, abs=1e-18)
    assert chk.e0_exact == pytest.approx(exact_neutral_ground_energy(e2, lam), abs=1e-14)
    # the residual beyond second order is 16 lam^4/e2^3 + O(lam^6)
    assert chk.deviation == pytest.approx(16 * lam**4, rel=1e-3)


def test_perturbative_check_zero_hopping():
    chk = perturbative_check(CouplingParams(1.0, 0.0))
    assert chk.e0_exact == pytest.approx(0.0, abs=1e-12)
    assert chk.e0_perturbative == 0.0


def test_perturbative_check_requires_coulomb():
    with pytest.raises(ValueError):
        perturbative_check(CouplingParams(0.0, 0.1))


@pytest.mark.parametrize("e2, lam", [(1.0, 1e200), (1e-320, 1.0)])
def test_perturbative_check_rejects_overflowing_coupling(e2, lam):
    # lam**2 overflows, or -4 lam^2 / e2 is -inf: an error naming the coupling
    with pytest.raises(ValueError, match=re.escape(f"e2={e2!r}, lam={lam!r}")):
        perturbative_check(CouplingParams(e2, lam))
    with pytest.raises(ValueError, match="overflows"):
        quartic_coefficient(e2, [lam])


@pytest.mark.parametrize("e2, lam", [(1e100, 1e90), (1.0, 0.0)])
def test_quartic_coefficient_rejects_undefined_ratio(e2, lam):
    with pytest.raises(ValueError, match=re.escape(f"e2={e2!r}, lam={lam!r}")):
        quartic_coefficient(e2, [lam])


def test_perturbative_regime_warning():
    # the warning names the caller's line, not one inside the library
    calls = {"perturbative_check": lambda: perturbative_check(CouplingParams(1.0, 0.5)),
             "hubbard_report": lambda: hubbard_report(CouplingParams(1.0, 0.5)),
             "quartic_coefficient": lambda: quartic_coefficient(1.0, [0.5])}
    for name, call in calls.items():
        with pytest.warns(UserWarning, match=r"lam/e2 > 0\.1") as record:
            call()
        assert [w.filename for w in record] == [__file__], name


def test_deviation_scales_as_lambda_fourth():
    devs = [perturbative_check(CouplingParams(1.0, lam)).deviation
            for lam in (0.02, 0.01, 0.005)]
    for d_big, d_small in zip(devs, devs[1:]):
        ratio = d_big / d_small
        assert 16 / 1.5 < ratio < 16 * 1.5
    c = quartic_coefficient(1.0, (0.02, 0.01, 0.005))
    assert 15.0 < c < 16.5


def test_h_int_commutes_with_symmetries():
    h = build_h_int(CouplingParams(1.0, 0.3), TELEPORT_MODES).mat
    for kind, wires in (("charge", ("a", "b")), ("spin_squared", ("a", "b")),
                        ("spin_z", ("a", "b")), ("parity", None)):
        o = build_observable(TELEPORT_MODES, kind, wires).mat
        assert np.abs(h @ o - o @ h).max() < 1e-12


def test_hopping_spectrum_symmetric_under_wire_exchange():
    h = build_h_lambda(0.8, AB_MODES).mat
    # relabel a <-> b: permute basis indices by swapping the two bit pairs
    perm = np.array([((n & 0b0011) << 2) | ((n & 0b1100) >> 2) for n in range(16)])
    swapped = h[np.ix_(perm, perm)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h), np.linalg.eigvalsh(swapped), atol=1e-12
    )


def test_singlet_below_triplet_with_expected_splitting():
    e2, lam = 1.0, 0.02
    h = build_h_int(CouplingParams(e2, lam), AB_MODES)
    singlet = ground_state(h, sector=(0, 0.0, 0.0))
    triplet = ground_state(h, sector=(0, 1.0, 0.0))
    assert singlet.energy < triplet.energy
    assert triplet.energy == pytest.approx(0.0, abs=1e-12)
    split = triplet.energy - singlet.energy
    assert split == pytest.approx(4 * lam**2 / e2, rel=0.01)


def test_triplet_sector_ground_is_degenerate_across_m():
    h = build_h_int(CouplingParams(1.0, 0.02), AB_MODES)
    energies = [ground_state(h, sector=(0, 1.0, m)).energy for m in (-1.0, 0.0, 1.0)]
    assert max(energies) - min(energies) < 1e-12


def test_empty_sector_raises():
    h = build_h_int(CouplingParams(1.0, 0.02), AB_MODES)
    with pytest.raises(ValueError):
        ground_state(h, sector=(0, 3.0, 0.0))


@pytest.mark.parametrize("lam", [1.7e308, 1e308])
def test_overflowing_coupling_raises_value_error_naming_it(lam):
    # at 1.7e308 the neutral sector block overflows, at 1e308 its eigenvalues
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"e2=1.0, lam={lam!r}")):
            hubbard_report(CouplingParams(1.0, lam))
        with pytest.raises(ValueError, match="not finite|overflow"):
            ground_state(build_h_lambda(lam, AB_MODES), sector=(0, None, None))


def test_hubbard_report_fields():
    rep = hubbard_report(CouplingParams(1.0, 0.01))
    assert set(rep) == {"e2", "lambda", "E0_exact", "E0_perturbative",
                        "singlet_overlap", "triplet_gap"}
    assert rep["E0_exact"] == pytest.approx(exact_neutral_ground_energy(1.0, 0.01), abs=1e-14)
    assert rep["triplet_gap"] == pytest.approx(4e-4, rel=0.01)
    # with no hopping the singlet still lies inside the degenerate ground space
    rep0 = hubbard_report(CouplingParams(1.0, 0.0))
    assert rep0["singlet_overlap"] == pytest.approx(1.0, abs=1e-10)


def test_free_doublon_example():
    # oracle: expand the bonding product; the doublon amplitude is 1/2, so a
    # pure doublon state relaxes onto the ground with overlap 1/2
    gs = ground_state(build_h_lambda(1.0, AB_MODES))
    doublon = basis_state(AB_MODES, [0, 1])
    assert abs(inner_product(doublon, gs.state)) == pytest.approx(0.5, abs=1e-12)
