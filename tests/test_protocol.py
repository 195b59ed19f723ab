import json
import logging
import re
import warnings

import numpy as np
import pytest

import edgeteleport.fock as fock
import edgeteleport.protocol as protocol
from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
    ModeSet,
    annihilation_matrix,
    basis_state,
    build_observable,
    creation_matrix,
    expectation,
    overlap,
    singlet_state,
)
from edgeteleport.gates import HADAMARD, IY, apply_gate, cnot, gate_unitary, hadamard
from edgeteleport.measure import (
    integer_class_projector,
    spin_sector_bases,
    spin_sectors,
    symmetry_sectors,
)
from edgeteleport.protocol import (
    SpinAmplitudes,
    TeleportReport,
    bob_correction,
    bob_fidelity,
    prepare_initial,
    run_teleport_mixed,
    run_teleport_once,
    run_trials,
    trial_rng,
)
from edgeteleport.relax import sector_ground_spaces

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


_NAN, _INF = float("nan"), float("inf")
_HUGE = complex(1e308, 1e308)  # finite, with an infinite modulus
_OVER = complex(1.7e308, 1.7e308)  # finite, and abs() of it raises OverflowError


@pytest.mark.parametrize("g1, g2, message", [
    (_NAN, 0, "spin amplitudes must be finite"),
    (0, complex(0, _NAN), "spin amplitudes must be finite"),
    (_INF, 0, "spin amplitudes must be finite"),
    (-_INF, 0, "spin amplitudes must be finite"),
    (0, complex(0, -_INF), "spin amplitudes must be finite"),
    (np.complex128(_NAN), 0, "spin amplitudes must be finite"),
    (_HUGE, 0, "|g1|^2 + |g2|^2 must equal 1"),
    (0, _HUGE, "|g1|^2 + |g2|^2 must equal 1"),
    (np.complex128(_HUGE), 0, "|g1|^2 + |g2|^2 must equal 1"),
    (1, 1, "|g1|^2 + |g2|^2 must equal 1"),
    (np.complex64(1), np.complex64(1), "|g1|^2 + |g2|^2 must equal 1"),
    (1 + 1e-11, 0, "|g1|^2 + |g2|^2 must equal 1"),
    (_OVER, 0, "|g1|^2 + |g2|^2 must equal 1"),
    (0, _OVER, "|g1|^2 + |g2|^2 must equal 1"),
    (np.complex128(_OVER), 0, "|g1|^2 + |g2|^2 must equal 1"),
])
def test_spin_amplitudes_rejects_each_bad_pair_with_its_message(g1, g2, message):
    with warnings.catch_warnings(), pytest.raises(ValueError) as exc:
        warnings.simplefilter("error")
        SpinAmplitudes(g1, g2)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_spin_amplitudes_stores_python_complex_from_numpy_inputs():
    for g1, g2 in [(np.complex128(0.6), np.complex128(0.8j)), (np.float64(0.6), 0.8j),
                   (0.6, 0.8j)]:
        g = SpinAmplitudes(g1, g2)
        assert (type(g.g1), type(g.g2)) == (complex, complex)
        assert (g.g1, g.g2) == (0.6, 0.8j)


@pytest.mark.parametrize("g1, g2, hexes", [
    (1, 1, ("0x1.6a09e667f3bccp-1", "0x0.0p+0", "0x1.6a09e667f3bccp-1", "0x0.0p+0")),
    (0.3 + 0.4j, 0.5,
     ("0x1.b27247aff148ep-2", "0x1.21a1851ff630ap-1", "0x1.6a09e667f3bccp-1", "0x0.0p+0")),
    (np.complex128(3), 4j, ("0x1.3333333333334p-1", "0x0.0p+0", "0x0.0p+0", "0x1.999999999999ap-1")),
    (1e150, 1e150j, ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcdp-1")),
])
def test_normalized_amplitudes_are_bit_exact(g1, g2, hexes):
    g = SpinAmplitudes.normalized(g1, g2)
    assert tuple(x.hex() for x in (g.g1.real, g.g1.imag, g.g2.real, g.g2.imag)) == hexes


def test_normalized_rejects_amplitudes_whose_squares_overflow():
    with pytest.raises(ValueError, match="not finite"):
        SpinAmplitudes.normalized(1e200, 0.0)
    g = SpinAmplitudes.normalized(1e150, 1e150j)
    assert (g.g1, g.g2) == pytest.approx((2**-0.5, 2**-0.5 * 1j), abs=1e-15)


@pytest.mark.parametrize("big", [np.complex128(1e200), np.float64(1e200),
                                 complex(1e308, 1e308)], ids=["complex128", "float64", "python"])
def test_normalized_overflow_gives_value_error_and_no_warning(big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            SpinAmplitudes.normalized(big, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            SpinAmplitudes.normalized(0.5, big)


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
    # a branch is one of BRANCHES exactly, not a float near one
    for bad in ((2, 0), (0.5, 0.5), (1, 2), (1.0 + 1e-12, 1.0), (0.0, 1e-300)):
        with pytest.raises(ValueError, match="no correction for branch"):
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

    def counting(state, h):
        calls["n"] += 1
        return real(state, h)

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


def test_mixed_restart_cap_raises_like_the_other_paths():
    class Misses:  # every class measurement draws the half-odd outcome, of weight 1/2
        def random(self):
            return 1.0 - 2.0**-53

    with pytest.raises(RuntimeError, match=r"after 3 restarts; statistically unreachable, "
                                           r"check the setup$"):
        run_teleport_mixed(SpinAmplitudes(1, 0), _mixture(0.5, 0.25, 0.25), Misses(), max_rounds=3)


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
PINNED_9_4 = ["0x1.978d4a02a819ap-2", "0x1.e23dba6d369f7p-1"]


def test_trial_rng_streams_are_stable():
    # scalar and batch draws walk the same stream, so the batched kernels and
    # the step-by-step path consume identical uniforms
    r1 = trial_rng(9, 4)
    seq = [r1.random() for _ in range(6)]
    r2 = trial_rng(9, 4)
    np.testing.assert_array_equal(np.array(seq), r2.random(6))
    # block k of trial i is numpy's Philox4x64-10 block after counter
    # i + k * 2**64 under key (seed, 0); pinned, since every report number
    # depends on it
    blocks = [np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64),
                                                   counter=4 + k * 2**64)).random(4)
              for k in range(2)]
    np.testing.assert_array_equal(np.array(seq), np.concatenate(blocks)[:6])
    assert [x.hex() for x in seq[:2]] == PINNED_9_4
    np.testing.assert_array_equal(protocol._Draws(9, 0, 7).upto(6)[4, :6], seq)


@pytest.mark.parametrize("seed, trial, error, message", [
    (0, 1.5, TypeError, "^trial must be an integer, not float$"),
    (0, True, TypeError, "^trial must be an integer, not bool$"),
    (2.0, 0, TypeError, "^seed must be an integer, not float$"),
    (0, -1, ValueError, "^trial must be >= 0$"),
    (-1, 0, ValueError, "^seed must be >= 0$"),
    (2**64, 0, ValueError, r"^seed must be < 2\*\*64: it is one 64-bit word of the stream key$"),
    (0, 2**64, ValueError,
     r"^trial must be < 2\*\*64: it is one 64-bit word of the stream counter$"),
])
def test_trial_rng_checks_its_arguments_as_run_trials_does(seed, trial, error, message):
    # a float or bool trial read the stream of another trial; a negative or
    # too large word raised numpy's OverflowError
    with pytest.raises(error, match=message):
        trial_rng(seed, trial)


def test_trial_rng_takes_the_largest_words_and_numpy_integers():
    top = trial_rng(2**64 - 1, 2**64 - 1).random(3)
    np.testing.assert_array_equal(trial_rng(np.uint64(2**64 - 1), np.uint64(2**64 - 1)).random(3),
                                  top)
    np.testing.assert_array_equal(trial_rng(np.int64(9), np.int8(4)).random(6),
                                  trial_rng(9, 4).random(6))


def test_run_trials_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_trials(SpinAmplitudes(1, 0), "electronic", 0, seed=0)
    with pytest.raises(ValueError):
        run_trials(SpinAmplitudes(1, 0), "smoke", 10, seed=0)
    with pytest.raises(ValueError, match="seed"):
        run_trials(SpinAmplitudes(1, 0), "electronic", 10, seed=-1)
    with pytest.raises(ValueError, match="seed must be < 2\\*\\*64"):
        run_trials(SpinAmplitudes(1, 0), "electronic", 10, seed=2**64)
    for bad in (2.5, True, "3"):
        for variant in ("electronic", "coldatom", "mixed"):
            with pytest.raises(TypeError, match="max_rounds must be an integer"):
                run_trials(None, variant, 10, max_rounds=bad)
    rho = DensityMatrix.from_state(singlet_state(AB_MODES))
    for variant in ("electronic", "coldatom"):
        with pytest.raises(ValueError, match="mixed variant only"):
            run_trials(None, variant, 5, resource=rho)


def test_run_trials_refuses_more_trials_than_stream_counters(monkeypatch):
    # trial 2**64 would read trial 0's block 1; the refusal runs no trial
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(protocol, "_run_trials_batched", no_trials)
    monkeypatch.setattr(protocol, "trial_rng", no_trials)
    for variant in ("electronic", "coldatom", "mixed"):
        with pytest.raises(ValueError, match=r"at most 2\*\*64 trials.*trial 0's block 1"):
            run_trials(None, variant, 2**64 + 1)
    with pytest.raises(AssertionError, match="a trial ran"):
        run_trials(None, "electronic", 2**64)  # the largest count is accepted


def test_kernel_setup_logs_its_build(caplog):
    for variant in ("electronic", "coldatom"):
        protocol._kernel_setup(variant)  # cached before the capture: the run below logs nothing
    # the same builder behind a second decorator, whose cache is empty
    fresh = fock._built_once()(protocol._kernel_setup.__wrapped__)
    with caplog.at_level(logging.DEBUG, logger="edgeteleport.protocol"):
        for variant in ("electronic", "coldatom"):
            fresh(variant)
            fresh(variant)  # a hit: no second line
        report = run_trials(None, "coldatom", 30, seed=4)
    lines = [r.getMessage() for r in caplog.records if r.name == "edgeteleport.protocol"]
    assert len(lines) == 2
    for variant, line in zip(("electronic", "coldatom"), lines):
        assert re.fullmatch(rf"built _kernel_setup for key \('{variant}',\) in \d+\.\d{{6}} s",
                            line)
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    # logging leaves the report alone
    assert report.to_json() == run_trials(None, "coldatom", 30, seed=4).to_json()


def test_mixed_warm_up_builds_what_a_run_on_a_resource_reads(monkeypatch, caplog):
    # the builders such a run reaches, behind second decorators whose caches
    # are empty (other tests have filled the real ones)
    asked, setup = [], fock._built_once()(protocol._kernel_setup.__wrapped__)
    monkeypatch.setattr(protocol, "_kernel_setup", lambda v: asked.append(v) or setup(v))
    monkeypatch.setattr(protocol, "neutral_spin_zero_basis", fock._built_once(
        key=lambda modes=AB_MODES: modes)(protocol.neutral_spin_zero_basis.__wrapped__))
    with caplog.at_level(logging.DEBUG, logger="edgeteleport"):
        protocol.warm_up("mixed")
        built = [r.getMessage() for r in caplog.records]
        caplog.clear()
        span = protocol.neutral_spin_zero_basis(AB_MODES)
        resource = DensityMatrix(AB_MODES, span @ np.diag([0.25, 0.25, 0.5]) @ span.conj().T)
        report = run_trials(None, "mixed", 10, resource=resource)
    assert [r.getMessage() for r in caplog.records if r.name.startswith("edgeteleport")] == []
    assert max(report.rounds_histogram) > 1  # a round-1 miss: the run checked its resource
    for name in ("_kernel_setup for key ('coldatom',)", "neutral_spin_zero_basis"):
        assert sum(line.startswith(f"built {name} ") for line in built) == 1, (name, built)
    # a mixed run builds and reads the cold-atom setup alone
    assert set(asked) == {"coldatom"}


def _report(**fields):
    """A hand-built report with edge-case values, ``fields`` replacing some."""
    values = dict(variant="coldatom", trials=10**6, seed=2**64 - 1, g1=None, g2=None,
                  backend="numpy", rng="philox4x64-10/v2",
                  branch_counts={"1,1": 0, "1,0": 1, "1,-1": 2**40, "0,0": 3},
                  rounds_histogram={1: 5, 2: 3, 10: 1, 11: 1, 64: 1},
                  mean_rounds=1e16, min_fidelity=5e-324, mean_fidelity=-0.0)
    return TeleportReport(**{**values, **fields})


@pytest.mark.parametrize("fields", [
    {},
    {"g1": (np.float64(0.6), -0.0), "g2": (1e16, 5e-324)},
    {"mean_rounds": np.float64(1.9766666666666666), "min_fidelity": 0.9999999999999998},
    {"variant": 'q"\\\n\u00e9\U0001f600\x00', "branch_counts": {}, "rounds_histogram": {}},
    {"seed": 0, "trials": 1, "rounds_histogram": {64: 1}},
])
def test_report_json_is_the_bytes_of_json_dumps(fields):
    report = _report(**fields)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_report_with_a_non_finite_float_is_not_written(bad):
    for fields in ({"mean_fidelity": bad}, {"g1": (0.5, bad), "g2": (0.5, 0.0)}):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _report(**fields).to_json()


@pytest.mark.parametrize("variant", ["electronic", "coldatom", "mixed"])
def test_run_trials_takes_numpy_integers_as_the_equal_int(variant):
    expected = run_trials(None, variant, 3, seed=5).to_json()
    for seed in (np.int64(5), np.uint64(5), np.int8(5)):
        report = run_trials(None, variant, np.int64(3), seed=seed)
        assert type(report.seed) is int
        assert report.to_json() == expected


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2.0), True, False, np.bool_(True),
                                 "3", None])
def test_run_trials_rejects_a_float_or_bool_seed_or_count(bad):
    # a float seed ran the stream of its integer part, a bool recorded "true"
    with pytest.raises(TypeError, match="seed must be an integer, not "):
        run_trials(None, "electronic", 3, seed=bad)
    with pytest.raises(TypeError, match="n must be an integer, not "):
        run_trials(None, "electronic", bad, seed=0)


def test_run_trials_accepts_the_largest_seed():
    for variant in ("electronic", "coldatom", "mixed"):
        rep = run_trials(None, variant, 5, seed=2**64 - 1)
        assert rep.seed == 2**64 - 1 and rep.trials == 5


def test_report_keys_and_rng_provenance():
    d = run_trials(SpinAmplitudes(1, 0), "electronic", 3, seed=1).to_dict()
    assert list(d) == ["variant", "trials", "seed", "g1", "g2", "backend", "rng",
                       "branch_counts", "rounds_histogram", "mean_rounds",
                       "min_fidelity", "mean_fidelity"]
    assert d["rng"] == "philox4x64-10/v2"


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


_CACHED = {
    "gate_unitary": lambda: gate_unitary(cnot("c", "a"), MODES),
    "creation_matrix": lambda: creation_matrix(MODES, 0),
    "annihilation_matrix": lambda: annihilation_matrix(MODES, 0),
    "spin_squared": lambda: build_observable(MODES, "spin_squared", ("c", "a")).mat,
    "symmetry_sectors": lambda: symmetry_sectors(MODES, protocol.ALICE_WIRES)[0].basis,
    "spin_sector_bases": lambda: spin_sector_bases(MODES, protocol.ALICE_WIRES)[0][2],
    "integer_class_projector": lambda: integer_class_projector(MODES, protocol.ALICE_WIRES),
    "sector_ground_spaces": lambda: sector_ground_spaces(protocol._relax_hamiltonian())[0][1],
    "relax_hamiltonian": lambda: protocol._relax_hamiltonian().mat,
    "b_reduction_indices": lambda: protocol._b_reduction_indices(MODES)[2],
    "kernel_setup": lambda: protocol._DOUBLON_LAW,
    "observable_diagonal": lambda: fock._observable_diagonal(MODES, "spin_z", ("b",)),
    "neutral_spin_zero_basis": lambda: protocol.neutral_spin_zero_basis(),
}


@pytest.mark.parametrize("name", list(_CACHED))
def test_cached_arrays_refuse_in_place_writes(name):
    # a write into a shared cache entry silently broke every later run
    with pytest.raises(ValueError, match="read-only"):
        _CACHED[name]()[...] = 0
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    assert run_teleport_once(g, "coldatom", np.random.default_rng(3)).fidelity >= 1 - 1e-12
    assert run_trials(g, "coldatom", 20, seed=3).min_fidelity >= 1 - 1e-12


def test_a_build_that_raises_stores_nothing():
    # the checks run inside the build, so every call repeats them
    for _ in range(2):
        with pytest.raises(IndexError, match="out of range"):
            creation_matrix(MODES, 99)
        with pytest.raises(KeyError, match="unknown wire"):
            gate_unitary(hadamard("z"), MODES)


@pytest.mark.parametrize("build", [symmetry_sectors, spin_sector_bases, integer_class_projector])
def test_every_spelling_of_the_wires_shares_one_entry(build):
    every = build(MODES)
    for same in (build(MODES, None), build(MODES, list(MODES.wires)),
                 build(MODES, tuple(MODES.wires)), build(modes=MODES, wires=MODES.wires)):
        assert same is every
    b = build(MODES, "b")
    assert build(MODES, ["b"]) is b and build(MODES, wires=("b",)) is b and b is not every


def test_a_sector_build_logs_on_the_measure_logger(caplog):
    modes = ModeSet((("logged", "up"), ("logged", "dn")))  # a key no other test builds
    with caplog.at_level(logging.DEBUG, logger="edgeteleport.measure"):
        sectors = symmetry_sectors(modes)
        assert symmetry_sectors(modes, "logged") is sectors
    lines = [r.getMessage() for r in caplog.records if r.name == "edgeteleport.measure"]
    assert len(lines) == 1
    assert re.fullmatch(r"built symmetry_sectors for key \(ModeSet\(.*\), \('logged',\)\) "
                        r"in \d+\.\d{6} s", lines[0])
