import numpy as np
import pytest

import edgeteleport.protocol as protocol
from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    basis_state,
    build_observable,
    expectation,
    overlap,
    singlet_state,
)
from edgeteleport.gates import HADAMARD, IY, apply_gate, cnot, hadamard
from edgeteleport.measure import spin_sectors
from edgeteleport.protocol import (
    SpinAmplitudes,
    bob_correction,
    bob_fidelity,
    prepare_initial,
    run_teleport_mixed,
    run_teleport_once,
    run_trials,
    trial_rng,
)

MODES = TELEPORT_MODES


def random_g(rng):
    return SpinAmplitudes.haar(rng)


def test_spin_amplitudes_validation():
    with pytest.raises(ValueError):
        SpinAmplitudes(1.0, 1.0)
    g = SpinAmplitudes.normalized(1.0, 1.0)
    assert abs(g.g1) ** 2 + abs(g.g2) ** 2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        SpinAmplitudes.normalized(0.0, 0.0)
    for bad in ((np.nan, 0.0), (1.0, complex(0.0, np.nan)), (np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            SpinAmplitudes(*bad)
        with pytest.raises(ValueError):
            SpinAmplitudes.normalized(*bad)
    with pytest.raises(ValueError, match="must equal 1"):
        SpinAmplitudes(1e200, 0.0)


def test_prepare_electronic_amplitude_pattern():
    psi = prepare_initial(SpinAmplitudes(1.0, 0.0), "electronic")
    nz = np.flatnonzero(np.abs(psi.amps) > 1e-14)
    # g2 = 0 leaves the two singlet monomials with c_up attached
    assert len(nz) == 2
    vals = sorted(psi.amps[nz].real)
    assert vals == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-15)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_prepare_coldatom_is_ab_singlet_with_doublons():
    g = SpinAmplitudes.normalized(0.3, 0.4 + 0.5j)
    psi = prepare_initial(g, "coldatom")
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    j2_ab = build_observable(MODES, "spin_squared", ("a", "b"))
    assert expectation(j2_ab, psi) == pytest.approx(0.0, abs=1e-12)
    # amplitude of the c_up a_up a_dn monomial is g1/2
    idx = (1 << MODES.index("c", "up")) | (1 << MODES.index("a", "up")) | (1 << MODES.index("a", "dn"))
    assert psi.amps[idx] == pytest.approx(g.g1 / 2, abs=1e-12)


def test_prepare_rejects_unknown_variant():
    with pytest.raises(ValueError):
        prepare_initial(SpinAmplitudes(1.0, 0.0), "smoke-signal")


def test_bob_correction_table():
    assert bob_correction(1, -1) == []
    assert [g.kind for g in bob_correction(0, 0)] == [HADAMARD]
    assert [g.kind for g in bob_correction(1, 1)] == [IY]
    assert [g.kind for g in bob_correction(1, 0)] == [HADAMARD, IY]
    for bad in ((2, 0), (0.5, 0.5), (1, 2)):
        with pytest.raises(ValueError):
            bob_correction(*bad)


def test_electronic_fidelity_is_exact():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_g(rng)
        res = run_teleport_once(g, "electronic", rng)
        assert res.rounds == 1
        assert res.fidelity >= 1 - 1e-12


def test_known_branch_state_needs_no_correction():
    # force the (1, -1) branch by projecting and check Bob's state directly
    g = SpinAmplitudes(1.0, 0.0)
    psi = prepare_initial(g, "electronic")
    psi = apply_gate(hadamard("c"), apply_gate(cnot("c", "a"), psi))
    outcomes = {(o.j, o.m): o for o in spin_sectors(psi, ("c", "a"))}
    post = outcomes[(1.0, -1.0)].post_state
    assert bob_correction(1, -1) == []
    assert bob_fidelity(post, g) == pytest.approx(1.0, abs=1e-12)
    # with g2 = 0 the branch is exactly c_dn^dag a_dn^dag b_up^dag |0>
    from edgeteleport.fock import create, vacuum_state

    exact = create(create(create(vacuum_state(MODES), "b", "up"), "a", "dn"), "c", "dn")
    assert overlap(exact, post) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_ignores_global_phase():
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    rng = np.random.default_rng(8)
    res = run_teleport_once(g, "electronic", rng)
    rotated = np.exp(1j * 0.7) * res.bob_state
    assert bob_fidelity(rotated, g) == pytest.approx(res.fidelity, abs=1e-12)


def test_coldatom_rounds_and_fidelity():
    rng = np.random.default_rng(100)
    rounds = []
    for _ in range(300):
        g = random_g(rng)
        res = run_teleport_once(g, "coldatom", rng)
        assert res.fidelity >= 1 - 1e-12
        rounds.append(res.rounds)
    mean = np.mean(rounds)
    assert 1.8 < mean < 2.2  # geometric with success 1/2


def test_coldatom_relaxes_exactly_rounds_minus_one_times(monkeypatch):
    calls = {"n": 0}
    real = protocol.relax_to_ground

    def counting(state, h, wires=("a", "b")):
        calls["n"] += 1
        return real(state, h, wires)

    monkeypatch.setattr(protocol, "relax_to_ground", counting)
    rng = np.random.default_rng(17)
    total_rounds = 0
    n = 50
    for _ in range(n):
        res = run_teleport_once(SpinAmplitudes.normalized(1, 1j), "coldatom", rng)
        total_rounds += res.rounds
    assert calls["n"] == total_rounds - n


def test_electronic_never_relaxes(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("relaxation must not run in the electronic variant")

    monkeypatch.setattr(protocol, "relax_to_ground", boom)
    res = run_teleport_once(SpinAmplitudes(0, 1), "electronic", np.random.default_rng(0))
    assert res.fidelity >= 1 - 1e-12


def test_superselection_through_protocol_steps():
    g = SpinAmplitudes.normalized(0.6, 0.8j)
    charge = build_observable(MODES, "charge")
    parity = build_observable(MODES, "parity")
    psi = prepare_initial(g, "electronic")
    q0, p0 = expectation(charge, psi), expectation(parity, psi)
    psi = apply_gate(cnot("c", "a"), psi)
    psi = apply_gate(hadamard("c"), psi)
    outcome = spin_sectors(psi, ("c", "a"))[0]
    states = [psi, outcome.post_state]
    for spec in bob_correction(outcome.j, outcome.m):
        states.append(apply_gate(spec, states[-1]))
    for s in states:
        assert expectation(charge, s) == pytest.approx(q0, abs=1e-10)
        assert expectation(parity, s) == pytest.approx(p0, abs=1e-10)


def test_correction_uses_only_classical_bits():
    # Bob's gates are a pure function of the two transmitted values
    for j, m in ((1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (0.0, 0.0)):
        specs = bob_correction(j, m)
        assert all(s.target == "b" for s in specs)
        assert bob_correction(j, m) == specs


def test_restart_cap_raises():
    class AlwaysHigh:
        def random(self, *a):
            return 0.999999 if not a else np.full(a[0], 0.999999)

        def standard_normal(self, k):
            return np.array([1.0, 0.0, 0.0, 0.0])

    with pytest.raises(RuntimeError):
        run_teleport_once(SpinAmplitudes(1, 0), "coldatom", AlwaysHigh(), max_rounds=8)


# ---------------------------------------------------------------------------
# mixed resource
# ---------------------------------------------------------------------------

def _mixture(p_singlet, p_a, p_b):
    s = singlet_state(AB_MODES)
    da = basis_state(AB_MODES, [0, 1])
    db = basis_state(AB_MODES, [2, 3])
    mat = (p_singlet * np.outer(s.amps, s.amps.conj())
           + p_a * np.outer(da.amps, da.amps.conj())
           + p_b * np.outer(db.amps, db.amps.conj()))
    return DensityMatrix(AB_MODES, mat)


def test_mixed_pure_singlet_reduces_to_electronic():
    g = SpinAmplitudes.normalized(0.28 + 0.1j, 0.95)
    res = run_teleport_mixed(g, _mixture(1.0, 0.0, 0.0), np.random.default_rng(5))
    assert res.rounds == 1
    assert res.fidelity >= 1 - 1e-10


def test_mixed_half_singlet_resource():
    g = SpinAmplitudes.normalized(1.0, 1.0)
    resource = _mixture(0.5, 0.25, 0.25)
    # round-1 integer probability is exactly the singlet weight
    from edgeteleport.measure import integer_class_projector

    chi = np.zeros(4, dtype=complex)
    chi[1], chi[2] = g.g1, g.g2
    rho0 = np.kron(resource.mat, np.outer(chi, chi.conj()))
    p = integer_class_projector(MODES, ("c", "a"))
    assert float(np.trace(p @ rho0 @ p).real) == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(23)
    rounds = []
    for _ in range(40):
        res = run_teleport_mixed(g, resource, rng)
        assert res.fidelity >= 1 - 1e-10
        rounds.append(res.rounds)
    assert min(rounds) == 1 and max(rounds) > 1


def test_mixed_rejects_useless_resource():
    with pytest.raises(ValueError):
        run_teleport_mixed(SpinAmplitudes(1, 0), _mixture(0.0, 1.0, 0.0),
                           np.random.default_rng(0))


def test_mixed_rejects_support_outside_span():
    bad = np.zeros((16, 16), dtype=complex)
    bad[1, 1] = 1.0  # a single electron, not in the neutral spin-zero span
    with pytest.raises(ValueError):
        run_teleport_mixed(SpinAmplitudes(1, 0), DensityMatrix(AB_MODES, bad),
                           np.random.default_rng(0))


def test_mixed_random_resources_complete_with_unit_fidelity():
    rng = np.random.default_rng(77)
    for _ in range(5):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho3 = z @ z.conj().T
        rho3 /= np.trace(rho3).real
        # guarantee singlet weight by mixing with the singlet projector
        rho3 = 0.7 * rho3 + 0.3 * np.diag([0.0, 0.0, 1.0])
        span = protocol.neutral_spin_zero_basis(AB_MODES)
        resource = DensityMatrix(AB_MODES, span @ rho3 @ span.conj().T)
        g = random_g(rng)
        res = run_teleport_mixed(g, resource, rng)
        assert res.fidelity >= 1 - 1e-10


# ---------------------------------------------------------------------------
# trial batches
# ---------------------------------------------------------------------------

def test_run_trials_reproducible():
    r1 = run_trials(SpinAmplitudes(1.0, 0.0), "electronic", 200, seed=5)
    r2 = run_trials(SpinAmplitudes(1.0, 0.0), "electronic", 200, seed=5)
    assert r1.to_json() == r2.to_json()
    r3 = run_trials(SpinAmplitudes(1.0, 0.0), "electronic", 200, seed=6)
    assert r1.branch_counts != r3.branch_counts


def test_run_trials_report_invariants():
    rep = run_trials(None, "coldatom", 400, seed=2)
    assert sum(rep.branch_counts.values()) == rep.trials == 400
    assert sum(rep.rounds_histogram.values()) == 400
    assert 0.0 <= rep.min_fidelity <= rep.mean_fidelity <= 1.0 + 1e-12
    assert rep.g1 is None and rep.g2 is None
    d = rep.to_dict()
    assert list(d["branch_counts"]) == ["1,1", "1,0", "1,-1", "0,0"]


def test_run_trials_branch_statistics():
    n = 4000
    rep = run_trials(None, "electronic", n, seed=11)
    sigma = np.sqrt(n * 0.25 * 0.75)
    for count in rep.branch_counts.values():
        assert abs(count - n / 4) <= 4 * sigma
    assert rep.min_fidelity >= 1 - 1e-12


#: First two doubles of trial 4's stream under seed 9.
PINNED_9_4 = ["0x1.acdaf2cc37900p-9", "0x1.ca5730b8908f5p-1"]


def test_trial_rng_streams_are_stable():
    # scalar and batch draws walk the same stream, so the batched kernels and
    # the step-by-step path consume identical uniforms
    r1 = trial_rng(9, 4)
    seq = [r1.random() for _ in range(6)]
    r2 = trial_rng(9, 4)
    np.testing.assert_array_equal(np.array(seq), r2.random(6))
    # the stream is Philox4x64-10 keyed by (seed, trial); pinned, since every
    # report number depends on it
    ref = np.random.Generator(np.random.Philox(key=np.array([9, 4], dtype=np.uint64)))
    np.testing.assert_array_equal(np.array(seq), ref.random(6))
    assert [x.hex() for x in seq[:2]] == PINNED_9_4
    np.testing.assert_array_equal(
        protocol._stream_uniforms(9, np.full(6, 4, dtype=np.uint64), np.arange(6)), seq)


def test_run_trials_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_trials(SpinAmplitudes(1, 0), "electronic", 0, seed=0)
    with pytest.raises(ValueError):
        run_trials(SpinAmplitudes(1, 0), "smoke", 10, seed=0)
    with pytest.raises(ValueError, match="seed"):
        run_trials(SpinAmplitudes(1, 0), "electronic", 10, seed=-1)
    with pytest.raises(ValueError, match="seed must be < 2\\*\\*64"):
        run_trials(SpinAmplitudes(1, 0), "electronic", 10, seed=2**64)


def test_run_trials_accepts_the_largest_seed():
    for variant in ("electronic", "coldatom", "mixed"):
        rep = run_trials(None, variant, 5, seed=2**64 - 1)
        assert rep.seed == 2**64 - 1 and rep.trials == 5


def test_report_keys_and_rng_provenance():
    d = run_trials(SpinAmplitudes(1, 0), "electronic", 3, seed=1).to_dict()
    assert list(d) == ["variant", "trials", "seed", "g1", "g2", "backend", "rng",
                       "branch_counts", "rounds_histogram", "mean_rounds",
                       "min_fidelity", "mean_fidelity"]
    assert d["rng"] == "philox4x64-10/v1"


def test_every_variant_recovers_200_random_spin_states():
    # end-to-end invariant: random amplitudes, random seeds, exact recovery
    for variant in ("electronic", "coldatom"):
        rep = run_trials(None, variant, 200, seed=101)
        assert rep.min_fidelity >= 1 - 1e-12
    rng = np.random.default_rng(55)
    resource = _mixture(0.6, 0.25, 0.15)
    for _ in range(30):
        res = run_teleport_mixed(random_g(rng), resource, rng)
        assert res.fidelity >= 1 - 1e-12
