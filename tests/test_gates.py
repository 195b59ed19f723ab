import itertools

import numpy as np
import pytest

from edgeteleport.fock import (
    TELEPORT_MODES,
    ModeSet,
    annihilation_matrix,
    build_observable,
    create,
    creation_matrix,
    inner_product,
    normalize,
    vacuum_state,
)
from edgeteleport.gates import (
    GateSpec,
    apply_gate,
    cnot,
    gate_unitary,
    hadamard,
    iy,
    spin_rotation,
)

MODES = TELEPORT_MODES
ALL_GATES = [
    cnot("c", "a"),
    hadamard("c"),
    hadamard("b"),
    iy("b"),
    spin_rotation("a", np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])),
]


def _vac():
    return vacuum_state(MODES)


def test_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("CNOT", target="a")  # control missing
    with pytest.raises(ValueError):
        GateSpec("HADAMARD", target="c", control="a")
    with pytest.raises(ValueError):
        spin_rotation("a", np.array([[1.0, 1.0], [0.0, 1.0]]))  # not unitary
    with pytest.raises(KeyError):
        gate_unitary(hadamard("nope"), MODES)


@pytest.mark.parametrize("spec", ALL_GATES)
def test_unitarity(spec):
    u = gate_unitary(spec, MODES)
    assert np.abs(u @ u.conj().T - np.eye(MODES.dim)).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_GATES)
def test_charge_and_parity_superselection(spec):
    u = gate_unitary(spec, MODES)
    charge = build_observable(MODES, "charge").mat
    parity = build_observable(MODES, "parity").mat
    assert np.abs(u @ charge - charge @ u).max() < 1e-12
    assert np.abs(u @ parity - parity @ u).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_GATES)
def test_per_wire_number_conservation(spec):
    u = gate_unitary(spec, MODES)
    for wire in MODES.wires:
        n_w = build_observable(MODES, "number", (wire,)).mat
        assert np.abs(u @ n_w - n_w @ u).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_GATES)
def test_gates_act_locally(spec):
    # the matrix factorizes as (block on involved wires) x identity: elements
    # vanish unless spectator occupations match, and match the spectator-empty
    # block exactly when they do
    u = gate_unitary(spec, MODES)
    involved = {spec.target} | ({spec.control} if spec.control else set())
    spectator_bits = 0
    for i, (wire, _) in enumerate(MODES.modes):
        if wire not in involved:
            spectator_bits |= 1 << i
    dim = MODES.dim
    for n in range(dim):
        for m in range(dim):
            if (n & spectator_bits) != (m & spectator_bits):
                assert abs(u[m, n]) < 1e-15
            else:
                base = u[m & ~spectator_bits, n & ~spectator_bits]
                assert abs(u[m, n] - base) < 1e-12


def test_hadamard_is_involutive():
    u = gate_unitary(hadamard("b"), MODES)
    assert np.abs(u @ u - np.eye(MODES.dim)).max() < 1e-12


def test_hadamard_replacement_rule():
    up = create(_vac(), "c", "up")
    out = apply_gate(hadamard("c"), up)
    expected = (create(_vac(), "c", "up") + create(_vac(), "c", "dn")) * (1 / np.sqrt(2))
    np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)
    dn = create(_vac(), "c", "dn")
    out2 = apply_gate(hadamard("c"), dn)
    expected2 = (create(_vac(), "c", "up") - create(_vac(), "c", "dn")) * (1 / np.sqrt(2))
    np.testing.assert_allclose(out2.amps, expected2.amps, atol=1e-15)


def test_iy_rule():
    out = apply_gate(iy("b"), create(_vac(), "b", "dn"))
    np.testing.assert_allclose(out.amps, -create(_vac(), "b", "up").amps, atol=1e-15)
    out2 = apply_gate(iy("b"), create(_vac(), "b", "up"))
    np.testing.assert_allclose(out2.amps, create(_vac(), "b", "dn").amps, atol=1e-15)


def _ca_state(c_spin, terms):
    """c_spin^dag (sum of (coeff, a_spin, b_spin) terms applied b first)|0>."""
    acc = None
    for coeff, a_s, b_s in terms:
        x = coeff * create(create(_vac(), "b", b_s), "a", a_s)
        acc = x if acc is None else acc + x
    return normalize(create(acc, "c", c_spin))


def test_cnot_leaves_control_up_branch_alone():
    state = _ca_state("up", [(1.0, "up", "dn"), (-1.0, "dn", "up")])
    out = apply_gate(cnot("c", "a"), state)
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)


def test_cnot_flips_a_on_control_dn_branch():
    # c_dn^dag (a_up^dag b_dn^dag + b_up^dag a_dn^dag)|0>  ->
    # c_dn^dag (a_dn^dag b_dn^dag + b_up^dag a_up^dag)|0>
    state = _ca_state("dn", [(1.0, "up", "dn"), (-1.0, "dn", "up")])
    expected = _ca_state("dn", [(1.0, "dn", "dn"), (-1.0, "up", "up")])
    out = apply_gate(cnot("c", "a"), state)
    np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)


def test_cnot_identity_on_empty_and_double_control():
    u = gate_unitary(cnot("c", "a"), MODES)
    no_c = create(create(_vac(), "b", "dn"), "a", "up")
    np.testing.assert_allclose(u @ no_c.amps, no_c.amps, atol=1e-15)
    cc = create(create(_vac(), "c", "dn"), "c", "up")
    target = create(cc, "a", "up")
    np.testing.assert_allclose(u @ target.amps, target.amps, atol=1e-15)


def test_cnot_sign_on_doubly_occupied_target():
    # occupation swap on a full a wire is the fermionic reordering, sign -1
    full_a = create(create(create(_vac(), "a", "dn"), "a", "up"), "c", "dn")
    out = apply_gate(cnot("c", "a"), full_a)
    np.testing.assert_allclose(out.amps, -full_a.amps, atol=1e-15)


def test_hadamard_sign_on_doubly_occupied_wire():
    # det of the 2x2 Hadamard is -1
    full_b = create(create(_vac(), "b", "dn"), "b", "up")
    out = apply_gate(hadamard("b"), full_b)
    np.testing.assert_allclose(out.amps, -full_b.amps, atol=1e-15)
    # det of iy is +1
    out2 = apply_gate(iy("b"), full_b)
    np.testing.assert_allclose(out2.amps, full_b.amps, atol=1e-15)


def _bob_state(g1, g2, up_coeff, dn_coeff):
    return up_coeff * g1 * create(_vac(), "b", "up") + dn_coeff * g2 * create(_vac(), "b", "dn")


def _random_g(rng):
    z = rng.standard_normal(4)
    g = (z[0] + 1j * z[1], z[2] + 1j * z[3])
    n = np.sqrt(abs(g[0]) ** 2 + abs(g[1]) ** 2)
    return g[0] / n, g[1] / n


def test_bob_correction_identities():
    rng = np.random.default_rng(9)
    sq2 = np.sqrt(2.0)
    for _ in range(10):
        g1, g2 = _random_g(rng)
        b_up = create(_vac(), "b", "up")
        b_dn = create(_vac(), "b", "dn")
        target = g1 * b_up + g2 * b_dn

        # iy on (g1 b_dn - g2 b_up) gives -(g1 b_up + g2 b_dn)
        state = g1 * b_dn - g2 * b_up
        out = apply_gate(iy("b"), state)
        np.testing.assert_allclose(out.amps, -target.amps, atol=1e-12)

        # H then iy on the (J=1, Jz=0) b factor gives -(target)
        state = g1 * (b_up - b_dn) * (1 / sq2) - g2 * (b_up + b_dn) * (1 / sq2)
        out = apply_gate(iy("b"), apply_gate(hadamard("b"), state))
        np.testing.assert_allclose(out.amps, -target.amps, atol=1e-12)

        # H on the (J=0) b factor gives +(target)
        state = g1 * (b_up + b_dn) * (1 / sq2) + g2 * (b_up - b_dn) * (1 / sq2)
        out = apply_gate(hadamard("b"), state)
        np.testing.assert_allclose(out.amps, target.amps, atol=1e-12)


def test_generic_rotation_matches_two_by_two_on_single_electron():
    rng = np.random.default_rng(4)
    # random unitary via QR
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    u2 = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    spec = spin_rotation("a", u2)
    a_up = create(_vac(), "a", "up")
    a_dn = create(_vac(), "a", "dn")
    out_up = apply_gate(spec, a_up)
    assert inner_product(a_up, out_up) == pytest.approx(u2[0, 0], abs=1e-12)
    assert inner_product(a_dn, out_up) == pytest.approx(u2[1, 0], abs=1e-12)
    out_dn = apply_gate(spec, a_dn)
    assert inner_product(a_up, out_dn) == pytest.approx(u2[0, 1], abs=1e-12)
    assert inner_product(a_dn, out_dn) == pytest.approx(u2[1, 1], abs=1e-12)


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


#: Same wires with each wire's up and dn modes apart, so moving an electron
#: between them crosses occupied spectator modes.
INTERLEAVED_MODES = ModeSet((("a", "up"), ("b", "dn"), ("c", "up"),
                             ("a", "dn"), ("c", "dn"), ("b", "up")))
WIRE_CASES = [(m, w) for m in (MODES, INTERLEAVED_MODES) for w in m.wires]


@pytest.mark.parametrize("modes, wire", WIRE_CASES)
@pytest.mark.parametrize("name, make, u2", [
    ("H", hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)),
    ("iY", iy, np.array([[0.0, -1.0], [1.0, 0.0]])),
    ("random", None, _random_unitary(17)),
])
def test_rotation_lift_is_covariant_on_every_wire(modes, wire, name, make, u2):
    # U f_s^dag U^dag = sum_s' u[s', s] f_s'^dag as a full-space operator
    # identity, so every spectator occupation (and its sign) is covered
    spec = make(wire) if make is not None else spin_rotation(wire, u2)
    u = gate_unitary(spec, modes)
    f = [creation_matrix(modes, i) for i in modes.wire_indices(wire)]
    for s in (0, 1):
        lhs = u @ f[s] @ u.conj().T
        rhs = u2[0, s] * f[0] + u2[1, s] * f[1]
        assert np.abs(lhs - rhs).max() < 1e-12, (name, wire, s)


@pytest.mark.parametrize("modes, control, target", [
    (m, c, t) for m in (MODES, INTERLEAVED_MODES) for c, t in itertools.permutations(m.wires, 2)
])
def test_cnot_is_x_rotation_where_control_holds_one_dn_electron(modes, control, target):
    cu, cd = modes.wire_indices(control)
    n_up = np.diagonal(creation_matrix(modes, cu) @ annihilation_matrix(modes, cu))
    n_dn = np.diagonal(creation_matrix(modes, cd) @ annihilation_matrix(modes, cd))
    active = (n_up == 0) & (n_dn == 1)
    u = gate_unitary(cnot(control, target), modes)
    x = gate_unitary(spin_rotation(target, np.array([[0.0, 1.0], [1.0, 0.0]])), modes)
    np.testing.assert_allclose(u[:, active], x[:, active], atol=1e-15)
    np.testing.assert_allclose(u[:, ~active], np.eye(modes.dim)[:, ~active], atol=1e-15)
