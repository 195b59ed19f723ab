import numpy as np
import pytest

from edgeteleport import fock
from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    ModeSet,
    StateVector,
    annihilation_matrix,
    apply_creation,
    basis_state,
    build_observable,
    create,
    creation_matrix,
    expectation,
    inner_product,
    normalize,
    singlet_state,
    vacuum_state,
)


def test_mode_set_validation():
    with pytest.raises(ValueError):
        ModeSet((("a", "up"), ("a", "up")))
    with pytest.raises(ValueError):
        ModeSet(tuple((f"w{i}", s) for i in range(9) for s in ("up", "dn")))
    with pytest.raises(ValueError):
        ModeSet((("a", "sideways"),))
    assert ModeSet(tuple((f"w{i}", s) for i in range(5) for s in ("up", "dn"))).dim == 1024
    assert TELEPORT_MODES.wires == ("c", "a", "b")
    assert TELEPORT_MODES.index("b", "dn") == 5
    with pytest.raises(KeyError):
        TELEPORT_MODES.index("z", "up")


def test_mode_set_rejects_more_modes_than_dense_operators_hold(monkeypatch):
    # 11 modes: one dense complex operator would take 64 MiB; the rejection
    # must come from the mode count alone, before any operator is built
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(fock, "creation_matrix", no_operator)
    monkeypatch.setattr(fock, "_observable_diagonal", no_operator)
    modes = tuple((f"w{i}", "up") for i in range(11))
    with pytest.raises(ValueError, match="at most 10 modes"):
        ModeSet(modes)


@pytest.mark.parametrize("modes", [AB_MODES, TELEPORT_MODES])
def test_anticommutators_are_exact(modes):
    dim = modes.dim
    for i in range(modes.n_modes):
        ci = creation_matrix(modes, i)
        ai = annihilation_matrix(modes, i)
        for j in range(modes.n_modes):
            cj = creation_matrix(modes, j)
            aj = annihilation_matrix(modes, j)
            acomm = ai @ cj + cj @ ai
            target = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(acomm - target).max() < 1e-14
            assert np.abs(ai @ aj + aj @ ai).max() < 1e-14
            assert np.abs(ci @ cj + cj @ ci).max() < 1e-14


def test_creation_on_vacuum():
    vac = vacuum_state(TELEPORT_MODES)
    up = create(vac, "a", "up")
    expected = basis_state(TELEPORT_MODES, [TELEPORT_MODES.index("a", "up")])
    assert inner_product(expected, up) == pytest.approx(1.0)


def test_anticommutation_sign_between_orders():
    vac = vacuum_state(TELEPORT_MODES)
    x = create(create(vac, "a", "dn"), "a", "up")  # a_up^dag a_dn^dag |0>
    y = create(create(vac, "a", "up"), "a", "dn")  # a_dn^dag a_up^dag |0>
    np.testing.assert_allclose(x.amps, -y.amps, atol=1e-15)


def test_pauli_exclusion_gives_zero_vector():
    vac = vacuum_state(TELEPORT_MODES)
    z = create(create(vac, "a", "up"), "a", "up")
    assert z.norm() == 0.0


def test_parity_anticommutes_with_creation():
    modes = AB_MODES
    parity = build_observable(modes, "parity").mat
    for i in range(modes.n_modes):
        c = creation_matrix(modes, i)
        assert np.abs(parity @ c + c @ parity).max() < 1e-14


def test_charge_eigenvalues():
    modes = AB_MODES
    charge_a = build_observable(modes, "charge", ("a",))
    doublon = create(create(vacuum_state(modes), "a", "dn"), "a", "up")
    assert expectation(charge_a, doublon) == pytest.approx(1.0)
    assert expectation(charge_a, vacuum_state(modes)) == pytest.approx(-1.0)


def test_spin_squared_singlet_and_triplet():
    modes = AB_MODES
    j2 = build_observable(modes, "spin_squared", ("a", "b"))
    g = singlet_state(modes)
    assert np.abs(j2.mat @ g.amps).max() < 1e-14  # eigenvector, eigenvalue 0
    up_up = create(create(vacuum_state(modes), "b", "up"), "a", "up")
    resid = j2.mat @ up_up.amps - 2.0 * up_up.amps
    assert np.abs(resid).max() < 1e-14  # j=1 -> j(j+1)=2


def test_observables_commute():
    modes = TELEPORT_MODES
    wires = ("a", "b")
    charge = build_observable(modes, "charge", wires).mat
    j2 = build_observable(modes, "spin_squared", wires).mat
    jz = build_observable(modes, "spin_z", wires).mat
    parity = build_observable(modes, "parity").mat
    for x, y in ((j2, jz), (charge, j2), (charge, jz), (charge, parity)):
        assert np.abs(x @ y - y @ x).max() < 1e-12


def test_diagonal_observables_are_cached_vectors():
    modes = TELEPORT_MODES

    def occupation(wire, spin):
        i = modes.index(wire, spin)
        return np.diagonal(creation_matrix(modes, i) @ annihilation_matrix(modes, i))

    n_b = occupation("b", "up") + occupation("b", "dn")
    expected = {
        ("number", ("b",)): n_b,
        ("charge", ("b",)): n_b - 1,
        ("spin_z", ("b",)): 0.5 * (occupation("b", "up") - occupation("b", "dn")),
        ("parity", None): (-1.0) ** sum(occupation(w, s) for w in "cab" for s in ("up", "dn")),
    }
    for (kind, wires), want in expected.items():
        diag = fock._observable_diagonal(modes, kind, wires)
        assert not diag.flags.writeable
        np.testing.assert_array_equal(diag, want)
        np.testing.assert_array_equal(build_observable(modes, kind, wires).mat, np.diag(diag))
    with pytest.raises(ValueError):
        fock._observable_diagonal(modes, "spin_squared")
    # only the non-diagonal J^2 is kept as a dense matrix
    build_observable(modes, "spin_z", ("a",))
    assert all(kind == "spin_squared" for _, kind, _ in fock._OBS_CACHE)


def test_state_vector_takes_strided_amplitudes():
    block = np.arange(128, dtype=np.complex128).reshape(64, 2) * (1 + 1j)
    for amps in (block[:, 0], block[::-1, 1]):
        state = StateVector(TELEPORT_MODES, amps)
        np.testing.assert_array_equal(state.amps, amps)
    with pytest.raises(ValueError, match="finite"):
        StateVector(TELEPORT_MODES, np.full((64, 2), np.nan, dtype=np.complex128)[:, 0])


def test_inner_product_and_normalize():
    vac = vacuum_state(TELEPORT_MODES)
    assert inner_product(vac, vac) == pytest.approx(1.0)
    up = create(vac, "a", "up")
    dn = create(vac, "a", "dn")
    assert inner_product(up, dn) == 0.0
    # conjugate-linear in the first slot
    assert inner_product(1j * up, up) == pytest.approx(-1j)
    with pytest.raises(ValueError):
        normalize(StateVector(TELEPORT_MODES, np.zeros(64)))
    parity = build_observable(TELEPORT_MODES, "parity")
    assert expectation(parity, up) == pytest.approx(-1.0)


def test_apply_creation_matches_matrix():
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = StateVector(AB_MODES, amps / np.linalg.norm(amps))
    for i in range(4):
        via_op = apply_creation(state, i)
        via_mat = creation_matrix(AB_MODES, i) @ state.amps
        np.testing.assert_allclose(via_op.amps, via_mat, atol=1e-15)
