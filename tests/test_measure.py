import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeteleport.fock import (
    TELEPORT_MODES,
    DensityMatrix,
    build_observable,
    create,
    normalize,
    overlap,
    singlet_state,
    vacuum_state,
)
from edgeteleport.gates import apply_gate, cnot, hadamard
from edgeteleport.measure import (
    HALF_ODD_INTEGER,
    INTEGER,
    MeasurementOutcome,
    born_index,
    integer_class_projector,
    measure_spin,
    measure_spin_class,
    measure_spin_dm,
    spin_sector_bases,
    spin_sectors,
    symmetry_sectors,
)
from edgeteleport.protocol import SpinAmplitudes, prepare_initial

MODES = TELEPORT_MODES


def _vac():
    return vacuum_state(MODES)


def alice_state(g1, g2):
    """Post-gate protocol state feeding Alice's (J, Jz) measurement."""
    psi = prepare_initial(SpinAmplitudes.normalized(g1, g2), "electronic")
    return apply_gate(hadamard("c"), apply_gate(cnot("c", "a"), psi))


def oracle_branches(g1, g2):
    """The four expected branch states, built directly from ladder operators."""
    vac = _vac()
    sq2 = np.sqrt(2.0)

    def compose(ca_terms, b_terms):
        acc = None
        for c_coeff, c_s, a_s in ca_terms:
            for b_coeff, b_s in b_terms:
                term = (c_coeff * b_coeff) * create(
                    create(create(vac, "b", b_s), "a", a_s), "c", c_s
                )
                acc = term if acc is None else acc + term
        return normalize(acc)

    branch_11 = compose([(1.0, "up", "up")], [(g1, "dn"), (-g2, "up")])
    branch_10 = compose(
        [(1 / sq2, "up", "dn"), (1 / sq2, "dn", "up")],
        [(g1 / sq2, "up"), (-g1 / sq2, "dn"), (-g2 / sq2, "up"), (-g2 / sq2, "dn")],
    )
    branch_1m1 = compose([(1.0, "dn", "dn")], [(g1, "up"), (g2, "dn")])
    branch_00 = compose(
        [(1 / sq2, "up", "dn"), (-1 / sq2, "dn", "up")],
        [(g1 / sq2, "up"), (g1 / sq2, "dn"), (g2 / sq2, "up"), (-g2 / sq2, "dn")],
    )
    return {(1.0, 1.0): branch_11, (1.0, 0.0): branch_10,
            (1.0, -1.0): branch_1m1, (0.0, 0.0): branch_00}


def test_sector_projector_completeness():
    total = np.zeros((MODES.dim, MODES.dim), dtype=complex)
    for s in symmetry_sectors(MODES, ("c", "a")):
        total += s.basis @ s.basis.conj().T
    assert np.abs(total - np.eye(MODES.dim)).max() < 1e-12


def test_sector_labels_are_consistent_eigenvalues():
    j2 = build_observable(MODES, "spin_squared", ("c", "a")).mat
    jz = build_observable(MODES, "spin_z", ("c", "a")).mat
    n_ca = build_observable(MODES, "number", ("c", "a")).mat
    for s in symmetry_sectors(MODES, ("c", "a")):
        for k in range(s.dim):
            v = s.basis[:, k]
            assert np.linalg.norm(j2 @ v - s.j * (s.j + 1) * v) < 1e-9
            assert np.linalg.norm(jz @ v - s.m * v) < 1e-9
            assert abs(s.m) <= s.j + 1e-12
            # 2j cannot exceed the electron count on the measured wires
            n_e = float(np.vdot(v, n_ca @ v).real)
            assert 2 * s.j <= n_e + 1e-9


def test_branch_decomposition_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        z = rng.standard_normal(4)
        g1, g2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
        n = np.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
        g1, g2 = g1 / n, g2 / n
        outcomes = spin_sectors(alice_state(g1, g2), ("c", "a"))
        assert [(o.j, o.m) for o in outcomes] == [(1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0)]
        oracle = oracle_branches(g1, g2)
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            assert overlap(oracle[(o.j, o.m)], o.post_state) > 1 - 1e-12
            # post state is already inside its sector: projecting is identity
            basis = dict(((j, m), b) for j, m, b in spin_sector_bases(MODES, ("c", "a")))[(o.j, o.m)]
            proj = basis @ (basis.conj().T @ o.post_state.amps)
            assert np.linalg.norm(proj - o.post_state.amps) < 1e-10


def test_probabilities_sum_to_one():
    outcomes = spin_sectors(alice_state(0.6, 0.8j), ("c", "a"))
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)


def test_singlet_is_pure_00():
    modes_state = singlet_state(MODES, "a", "b")
    outcomes = spin_sectors(modes_state, ("a", "b"))
    assert len(outcomes) == 1
    assert (outcomes[0].j, outcomes[0].m) == (0.0, 0.0)
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_polarized_pair_is_pure_11():
    state = create(create(_vac(), "b", "up"), "a", "up")
    outcomes = spin_sectors(state, ("a", "b"))
    assert [(o.j, o.m) for o in outcomes] == [(1.0, 1.0)]
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_measure_deterministic_state_ignores_seed():
    state = create(create(_vac(), "b", "up"), "a", "up")
    for seed in (0, 1, 12345):
        out = measure_spin(state, ("a", "b"), np.random.default_rng(seed))
        assert (out.j, out.m) == (1.0, 1.0)
        assert out.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_same_seed_same_outcomes():
    state = alice_state(0.3 + 0.1j, np.sqrt(1 - 0.1 - 0.01))
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    seq1 = [(o.j, o.m) for o in (measure_spin(state, ("c", "a"), rng1) for _ in range(50))]
    seq2 = [(o.j, o.m) for o in (measure_spin(state, ("c", "a"), rng2) for _ in range(50))]
    assert seq1 == seq2


def test_measure_idempotent():
    state = alice_state(1 / np.sqrt(2), 1j / np.sqrt(2))
    rng = np.random.default_rng(3)
    first = measure_spin(state, ("c", "a"), rng)
    again = measure_spin(first.post_state, ("c", "a"), rng)
    assert (again.j, again.m) == (first.j, first.m)
    assert again.probability == pytest.approx(1.0, abs=1e-10)


def test_born_frequencies():
    state = alice_state(0.6, 0.8)
    rng = np.random.default_rng(123)
    counts = {}
    n = 100_000
    for _ in range(n):
        out = measure_spin(state, ("c", "a"), rng)
        counts[(out.j, out.m)] = counts.get((out.j, out.m), 0) + 1
    assert set(counts) == {(1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0)}
    for v in counts.values():
        assert abs(v / n - 0.25) < 0.01


def test_class_projector_is_projector():
    p = integer_class_projector(MODES, ("c", "a"))
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12


def test_class_measurement_on_coldatom_state():
    g = SpinAmplitudes.normalized(0.8, 0.6j)
    psi = prepare_initial(g, "coldatom")
    p = integer_class_projector(MODES, ("c", "a"))
    p_int = float(np.vdot(p @ psi.amps, p @ psi.amps).real)
    assert p_int == pytest.approx(0.5, abs=1e-12)

    # integer branch projects onto the singlet-resource form
    expected_int = prepare_initial(g, "electronic")
    # half-odd branch is the doublon form
    vac = _vac()
    doublons = (
        create(create(vac, "a", "dn"), "a", "up")
        + create(create(vac, "b", "dn"), "b", "up")
    ) * (1 / np.sqrt(2.0))
    expected_half = g.g1 * create(doublons, "c", "up") + g.g2 * create(doublons, "c", "dn")

    seen = set()
    for seed in range(8):
        cls, post = measure_spin_class(psi, ("c", "a"), np.random.default_rng(seed))
        seen.add(cls)
        if cls == INTEGER:
            assert overlap(expected_int, post) > 1 - 1e-12
        else:
            assert overlap(expected_half, post) > 1 - 1e-12
    assert seen == {INTEGER, HALF_ODD_INTEGER}


def test_class_measurement_trivial_cases():
    one = create(_vac(), "a", "up")
    cls, post = measure_spin_class(one, ("a",), np.random.default_rng(0))
    assert cls == HALF_ODD_INTEGER
    assert overlap(one, post) > 1 - 1e-12
    cls2, post2 = measure_spin_class(_vac(), ("a",), np.random.default_rng(0))
    assert cls2 == INTEGER
    assert overlap(_vac(), post2) > 1 - 1e-12


def test_zero_probability_outcomes_dropped():
    state = create(create(_vac(), "b", "up"), "a", "up")
    outcomes = spin_sectors(state, ("a", "b"))
    assert all(o.probability > 1e-14 for o in outcomes)
    assert isinstance(outcomes[0], MeasurementOutcome)


def _born_loop(probs, u):
    """Scalar reference: first running sum above u, else the last nonzero outcome."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    nonzero = [k for k, p in enumerate(probs) if p > 0.0]
    return nonzero[-1] if nonzero else len(probs) - 1


def test_born_index_falls_back_to_last_nonzero_outcome():
    probs = [0.25, 0.25, 0.25, 0.25 - 1e-15, 0.0, 0.0]
    assert born_index(probs, 0.9999999999999999) == 3
    assert born_index(probs, 0.1) == 0
    assert born_index([0.0, 0.0], 0.5) == 1
    batch = np.array([probs, [0.0, 0.5, 0.5, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(born_index(batch, np.array([0.9999999999999999, 0.6])), [3, 2])


def test_born_index_takes_the_fallback_on_the_over_rows_only():
    # one batch: rows whose draw is at or above the total take the last
    # nonzero outcome; on every other row that outcome is the wrong answer
    probs = np.array([[0.25, 0.25, 0.25, 0.25 - 1e-15, 0.0, 0.0],
                      [0.25, 0.25, 0.25, 0.25 - 1e-15, 0.0, 0.0],
                      [0.0, 0.5, 0.0, 0.5 - 1e-15, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.5, 0.0, 0.5 - 1e-15, 0.0, 0.0],
                      [0.3, 0.0, 0.2, 0.0, 0.5 - 1e-15, 0.0]])
    u = np.array([0.9999999999999999, 0.1, 0.9999999999999999, 0.5, 0.2, 0.45])
    over = u >= probs.sum(axis=1)
    assert over.tolist() == [True, False, True, True, False, False]
    got = born_index(probs, u)
    np.testing.assert_array_equal(got, [3, 0, 3, 5, 1, 2])
    assert got.tolist() == [_born_loop(p, x) for p, x in zip(probs, u)]
    last_nonzero = [max([k for k, p in enumerate(row) if p > 0.0], default=5) for row in probs]
    assert all((g == last) == o for g, last, o in zip(got, last_nonzero, over))


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_measurements_never_pick_a_zero_probability_sector():
    # a triplet pair: every sector after (1, 1) has probability zero
    state = create(create(_vac(), "b", "up"), "a", "up")
    rho = DensityMatrix.from_state(state)
    for u in (0.0, 0.5, 1.0):
        out = measure_spin(state, ("a", "b"), _FixedUniform(u))
        assert (out.j, out.m) == (1.0, 1.0)
        j, m, p, post = measure_spin_dm(rho, ("a", "b"), _FixedUniform(u))
        assert (j, m) == (1.0, 1.0)
        assert np.all(np.isfinite(post.mat))


_probs = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8)


@given(st.lists(st.tuples(_probs, st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=6))
def test_born_index_batch_matches_scalar_loop(rows):
    width = max(len(p) for p, _ in rows)
    probs = np.array([p + [0.0] * (width - len(p)) for p, _ in rows])
    u = np.array([u for _, u in rows])
    expected = [_born_loop(p, x) for p, x in zip(probs, u)]
    np.testing.assert_array_equal(born_index(probs, u), expected)
    assert [int(born_index(p, x)) for p, x in zip(probs, u)] == expected
