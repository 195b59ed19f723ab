"""The vectorised batch engine must reproduce the step-by-step path trial by trial.

``run_teleport_once`` on the stream ``trial_rng(seed, i)`` is the reference:
the engine reads the same uniforms from the vectorised stream, so branch and
round decisions agree exactly and fidelities agree to rounding.
"""

import hashlib

import numpy as np
import pytest

import edgeteleport._kernels as kernels
import edgeteleport.protocol as protocol
from edgeteleport.fock import TELEPORT_MODES, StateVector, create, vacuum_state
from edgeteleport.gates import apply_gate, cnot, gate_unitary, hadamard
from edgeteleport.measure import measure_spin, spin_sector_bases
from edgeteleport.protocol import (
    SpinAmplitudes,
    bob_correction,
    bob_fidelity,
    default_backend,
    run_teleport_once,
    run_trials,
    trial_rng,
)
from edgeteleport.relax import relax_to_ground, sector_ground_spaces


def _oracle(g, variant, n, seed):
    branches, rounds, fids = [], [], []
    for i in range(n):
        rng = trial_rng(seed, i)
        gi = g if g is not None else SpinAmplitudes.haar(rng)
        res = run_teleport_once(gi, variant, rng)
        branches.append(protocol._branch_index(*res.branch))
        rounds.append(res.rounds)
        fids.append(res.fidelity)
    return np.array(branches), np.array(rounds), np.array(fids)


def _assert_engine_matches_oracle(g, variant, n, seed):
    chunks = protocol._run_trials_batched(g, variant, n, seed, protocol.DEFAULT_MAX_ROUNDS)
    branches, rounds, fids = map(np.concatenate, zip(*chunks))
    o_branches, o_rounds, o_fids = _oracle(g, variant, n, seed)
    np.testing.assert_array_equal(branches, o_branches)
    np.testing.assert_array_equal(rounds, o_rounds)
    assert np.abs(fids - o_fids).max() <= 1e-12
    return rounds


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
@pytest.mark.parametrize("g", [SpinAmplitudes(1.0, 0.0),
                               SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["up", "fixed", "haar"])
@pytest.mark.parametrize("seed", [0, 13, 99])
def test_engine_matches_oracle(variant, g, seed):
    _assert_engine_matches_oracle(g, variant, 150, seed)


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_engine_matches_oracle_across_chunks(variant):
    _assert_engine_matches_oracle(None, variant, protocol._CHUNK + 37, 5)


@pytest.mark.parametrize("g", [SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["fixed", "haar"])
def test_coldatom_engine_matches_oracle_past_the_predrawn_blocks(g, monkeypatch):
    # fewer pre-drawn blocks than the default, so that some trials of this
    # run read past them and take the fallback
    monkeypatch.setattr(protocol, "_PREDRAWN_BLOCKS", 2)
    rounds = _assert_engine_matches_oracle(g, "coldatom", protocol._CHUNK + 37, 8)
    # a trial's last draw, its branch draw, has index (Haar draws) + rounds;
    # the case is covered only if some trial read past the pre-drawn blocks
    first = 0 if g is not None else 3
    assert (first + rounds).max() >= 4 * protocol._PREDRAWN_BLOCKS


def test_report_statistics_match_oracle():
    g = SpinAmplitudes.normalized(0.6, 0.8j)
    rep = run_trials(g, "coldatom", 300, seed=21)
    branches, rounds, fids = _oracle(g, "coldatom", 300, 21)
    assert list(rep.branch_counts.values()) == np.bincount(branches, minlength=4).tolist()
    assert rep.rounds_histogram == {int(r): int(c)
                                    for r, c in zip(*np.unique(rounds, return_counts=True))}
    assert rep.mean_rounds == float(np.mean(rounds))
    assert abs(rep.min_fidelity - fids.min()) <= 1e-12
    assert abs(rep.mean_fidelity - fids.mean()) <= 1e-12


def test_restart_cap_raises_exactly_where_the_oracle_needs_more_rounds():
    longest = int(_oracle(None, "coldatom", 60, 4)[1].max())
    assert longest >= 2
    rep = run_trials(None, "coldatom", 60, seed=4, max_rounds=longest)
    assert max(rep.rounds_histogram) == longest
    with pytest.raises(RuntimeError, match=f"no integer-spin outcome after {longest - 1} restarts"):
        run_trials(None, "coldatom", 60, seed=4, max_rounds=longest - 1)
    with pytest.raises(ValueError):
        run_trials(None, "coldatom", 60, seed=4, max_rounds=0)


def test_batched_run_is_reproducible():
    a = run_trials(None, "coldatom", 250, seed=99)
    b = run_trials(None, "coldatom", 250, seed=99)
    assert a.to_json() == b.to_json()
    assert a.backend == default_backend() == "numpy"


def _random_states(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, 64)) + 1j * rng.normal(size=(n, 64))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def test_stacked_relaxation_matches_the_library_row_by_row():
    h = protocol._relax_hamiltonian()
    psi = _random_states(40, 3)
    # protocol states reach only a few of the a-b sectors; these reach all ten
    bases = [basis for basis, _ in sector_ground_spaces(h)]
    assert len(bases) == 10
    assert min(np.linalg.norm(psi @ b.conj(), axis=1).min() for b in bases) > 0.05
    out = kernels._relax(psi, protocol._kernel_setup("coldatom"))
    for row, state in zip(out, psi):
        ref = relax_to_ground(StateVector(TELEPORT_MODES, state), h).amps
        assert np.abs(row - ref).max() <= 1e-12


def test_stacked_relaxation_raises_where_the_library_does():
    setup = protocol._kernel_setup("coldatom")
    vac = vacuum_state(TELEPORT_MODES)
    # a doublon minus b doublon is orthogonal to its sector's hopping ground space
    anti = (create(create(vac, "a", "dn"), "a", "up")
            - create(create(vac, "b", "dn"), "b", "up")) * (1 / np.sqrt(2.0))
    anti = create(anti, "c", "up")
    with pytest.raises(RuntimeError, match="orthogonal"):
        relax_to_ground(anti, protocol._relax_hamiltonian())
    good = _random_states(3, 4)
    with pytest.raises(RuntimeError, match="orthogonal"):
        kernels._relax(np.vstack([good, anti.amps]), setup)
    with pytest.raises(RuntimeError, match="zero vector"):
        kernels._relax(np.vstack([good, np.zeros(64)]), setup)


def test_report_aggregates_chunks_as_the_array_path_does():
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 60, size=37)
    chunks = [(rng.integers(0, 4, size=k), rng.geometric(0.5, size=k), rng.random(k))
              for k in sizes]
    for part in (chunks[:1], chunks):
        b, r, f = map(np.concatenate, zip(*part))
        rep = protocol._assemble_report("coldatom", 0, None, iter(part))
        assert rep.trials == len(b)
        assert list(rep.branch_counts.values()) == np.bincount(b, minlength=4).tolist()
        assert rep.rounds_histogram == {int(k): int(c)
                                        for k, c in zip(*np.unique(r, return_counts=True))}
        assert rep.mean_rounds == float(np.mean(r))
        assert rep.min_fidelity == float(np.min(f))
        assert abs(rep.mean_fidelity - float(np.mean(f))) <= 1e-15
    # one chunk is summed exactly as np.mean sums the array
    assert protocol._assemble_report("coldatom", 0, None, chunks[:1]).mean_fidelity == \
        float(np.mean(chunks[0][2]))


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_run_trials_over_many_chunks_matches_the_array_path(variant, monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK", 7)
    rep = run_trials(None, variant, 100, seed=11)
    branches, rounds, fids = _oracle(None, variant, 100, 11)
    assert list(rep.branch_counts.values()) == np.bincount(branches, minlength=4).tolist()
    assert rep.rounds_histogram == {int(r): int(c)
                                    for r, c in zip(*np.unique(rounds, return_counts=True))}
    assert rep.mean_rounds == float(np.mean(rounds))
    assert abs(rep.min_fidelity - fids.min()) <= 1e-12
    assert abs(rep.mean_fidelity - fids.mean()) <= 1e-12


@pytest.mark.parametrize("g", [SpinAmplitudes(1.0, 0.0),
                               SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)],
                         ids=["up", "fixed"])
def test_one_shared_row_gives_the_per_trial_rows_results(g):
    n = 400
    row = np.array([[g.g1, g.g2]])
    shared = (row, np.zeros(n, dtype=np.int64))
    per_trial = (np.repeat(row, n, axis=0), np.arange(n))
    u = np.random.default_rng(23).random((n, protocol.DEFAULT_MAX_ROUNDS + 1))

    setup = protocol._kernel_setup("electronic")
    (b1, f1), (b2, f2) = (kernels.electronic_batch(setup, *rows, u[:, 0])
                          for rows in (shared, per_trial))
    np.testing.assert_array_equal(b1, b2)
    assert np.abs(f1 - f2).max() <= 1e-15

    setup = protocol._kernel_setup("coldatom")
    (b1, r1, f1), (b2, r2, f2) = (
        kernels.coldatom_batch(setup, *rows, lambda trials, k: u[trials, k],
                               protocol.DEFAULT_MAX_ROUNDS)
        for rows in (shared, per_trial))
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(r1, r2)
    assert np.abs(f1 - f2).max() <= 1e-15
    assert r1.max() >= 5  # the shared row went through several restarts


@pytest.mark.parametrize("g", [SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["fixed", "haar"])
def test_relaxation_runs_once_per_state_row(g, monkeypatch):
    sizes = []
    real = kernels._relax

    def spy(psi, setup):
        sizes.append(len(psi))
        return real(psi, setup)

    monkeypatch.setattr(kernels, "_relax", spy)
    n = protocol._CHUNK + 37
    chunks = list(protocol._run_trials_batched(g, "coldatom", n, 3, protocol.DEFAULT_MAX_ROUNDS))
    if g is not None:
        # one input: a single row relaxes after each round but a chunk's last
        assert sizes == [1] * sum(int(rounds.max()) - 1 for _, rounds, _ in chunks)
    else:
        # one row per trial: every trial relaxes once per miss
        assert sum(sizes) == sum(int(np.sum(rounds - 1)) for _, rounds, _ in chunks)


def test_outcome_outside_the_branches_raises_naming_it():
    setup = protocol._kernel_setup("coldatom")
    # one electron on c and none on a: Alice's c-a spin is 1/2 after her gates
    lone = create(vacuum_state(TELEPORT_MODES), "c", "up").amps
    with pytest.raises(RuntimeError, match=r"Alice measured \(J, Jz\) = \(0\.5, -?0\.5\)"):
        kernels._measure_and_correct(setup, lone[None, :], np.array([[1.0, 0.0]]),
                                     np.zeros(3, dtype=np.int64), np.array([0.1, 0.5, 0.9]))


class _Uniforms:
    """Stands in for a trial's generator: the step-by-step path reads its
    uniforms one ``random()`` call at a time, in stream order."""

    def __init__(self, u):
        self.u = iter(u)

    def random(self):
        return next(self.u)


def _step_by_step_fidelity(x, g, u):
    """Alice's gates and measurement on the state ``x`` with the uniform
    ``u``, Bob's correction, then ``bob_fidelity`` against ``g``."""
    psi = apply_gate(hadamard("c"), apply_gate(cnot("c", "a"), StateVector(TELEPORT_MODES, x)))
    outcome = measure_spin(psi, protocol.ALICE_WIRES, _Uniforms([u]))
    psi = outcome.post_state
    for spec in bob_correction(outcome.j, outcome.m):
        psi = apply_gate(spec, psi)
    return bob_fidelity(psi, SpinAmplitudes(*g))


@pytest.mark.parametrize("branch", range(len(protocol.BRANCHES)))
def test_bob_step_with_every_trial_in_one_branch(branch):
    # generic states inside one branch sector: Bob's fidelity depends on
    # which branch's correction the engine applies, and the other three
    # branches' segments are empty
    sectors = spin_sector_bases(TELEPORT_MODES, protocol.ALICE_WIRES)
    basis = next(b for j, m, b in sectors if (j, m) == protocol.BRANCHES[branch])
    u_alice = (gate_unitary(hadamard("c"), TELEPORT_MODES)
               @ gate_unitary(cnot("c", "a"), TELEPORT_MODES))
    rng = np.random.default_rng(41 + branch)
    m, n = 40, protocol._CHUNK
    c = rng.normal(size=(basis.shape[1], m)) + 1j * rng.normal(size=(basis.shape[1], m))
    x = c.T @ basis.T @ u_alice.conj()  # Alice's gates take each row into the sector
    x /= np.linalg.norm(x, axis=1)[:, None]
    g = np.stack(protocol._haar_amplitudes(rng.random((m, 3))), axis=1)
    of, u = rng.integers(0, m, n), rng.random(n)
    branches, fids = kernels._measure_and_correct(protocol._kernel_setup("coldatom"), x, g, of, u)
    assert set(branches.tolist()) == {branch}
    expected = [_step_by_step_fidelity(x[row], g[row], u[i]) for i, row in enumerate(of)]
    assert np.abs(fids - expected).max() <= 1e-15
    assert np.ptp(fids) > 0.1  # generic fidelities, not the protocol's 1


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_bob_step_with_a_fixed_input_on_all_four_branches(variant):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    n = protocol._CHUNK
    u = np.random.default_rng(43).random((n, protocol.DEFAULT_MAX_ROUNDS + 1))
    setup, row, of = protocol._kernel_setup(variant), np.array([[g.g1, g.g2]]), np.zeros(n, dtype=int)
    if variant == "electronic":
        branches, fids = kernels.electronic_batch(setup, row, of, u[:, 0])
    else:
        branches, _, fids = kernels.coldatom_batch(setup, row, of, lambda trials, k: u[trials, k],
                                                   protocol.DEFAULT_MAX_ROUNDS)
    assert set(branches.tolist()) == set(range(len(protocol.BRANCHES)))
    expected = [run_teleport_once(g, variant, _Uniforms(u[i])).fidelity for i in range(n)]
    assert np.abs(fids - expected).max() <= 1e-15


# Exact report bytes: a change to any of them must be deliberate.
_GOLDEN = {
    ("electronic", "fixed", 11): """\
{
  "variant": "electronic",
  "trials": 300,
  "seed": 11,
  "g1": [
    0.42426406871192845,
    0.565685424949238
  ],
  "g2": [
    0.7071067811865475,
    0.0
  ],
  "backend": "numpy",
  "rng": "philox4x64-10/v1",
  "branch_counts": {
    "1,1": 72,
    "1,0": 76,
    "1,-1": 83,
    "0,0": 69
  },
  "rounds_histogram": {
    "1": 300
  },
  "mean_rounds": 1.0,
  "min_fidelity": 1.0,
  "mean_fidelity": 1.0
}
""",
    ("electronic", "haar", 12): """\
{
  "variant": "electronic",
  "trials": 300,
  "seed": 12,
  "g1": null,
  "g2": null,
  "backend": "numpy",
  "rng": "philox4x64-10/v1",
  "branch_counts": {
    "1,1": 83,
    "1,0": 62,
    "1,-1": 82,
    "0,0": 73
  },
  "rounds_histogram": {
    "1": 300
  },
  "mean_rounds": 1.0,
  "min_fidelity": 0.9999999999999997,
  "mean_fidelity": 1.0
}
""",
    ("coldatom", "fixed", 13): """\
{
  "variant": "coldatom",
  "trials": 300,
  "seed": 13,
  "g1": [
    0.42426406871192845,
    0.565685424949238
  ],
  "g2": [
    0.7071067811865475,
    0.0
  ],
  "backend": "numpy",
  "rng": "philox4x64-10/v1",
  "branch_counts": {
    "1,1": 80,
    "1,0": 84,
    "1,-1": 68,
    "0,0": 68
  },
  "rounds_histogram": {
    "1": 149,
    "2": 78,
    "3": 28,
    "4": 22,
    "5": 18,
    "6": 3,
    "7": 2
  },
  "mean_rounds": 1.9966666666666666,
  "min_fidelity": 0.9999999999999998,
  "mean_fidelity": 1.0
}
""",
}


@pytest.mark.parametrize("variant, g_kind, seed", list(_GOLDEN))
def test_golden_report_bytes(variant, g_kind, seed):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    assert run_trials(g, variant, 300, seed=seed).to_json() == _GOLDEN[variant, g_kind, seed]


# SHA-256 of the report JSON over both engine variants, fixed and Haar inputs,
# one trial, part of a chunk and past a chunk, a small and the largest seed.
_DIGESTS = {
    ("electronic", "fixed", 1, 5): "4902c9c70d9f85ec9f9de1a3455896691b15676ea7ad737f443646fa48754c37",
    ("electronic", "fixed", 1, 2**64 - 1): "fb4aa1b989cc13628651f2479b532eb5f8b1aba2179201dc3d355469545500fb",
    ("electronic", "fixed", 50, 5): "f35b61f85992451fe0634a07e387fff7b0ba658e3da1b1f0dae12dd674b83466",
    ("electronic", "fixed", 50, 2**64 - 1): "5effd9f1aa69a3f2999358ab1a579dd77b66a4ebc07be17aa5d71ef24c75c268",
    ("electronic", "fixed", 1025, 5): "646045ebf442bf7d40705656c3320fd20eb20da9978aa09d2b20a1a9f633d4c3",
    ("electronic", "fixed", 1025, 2**64 - 1): "74dfddf8580902560896a6a964ec9162ba509ef703292821573118b1dc326a87",
    ("electronic", "haar", 1, 5): "69157d8ccc95b54dd2e45f1c03507c0d1d027e9c04ee74262140bfdfc58ec01a",
    ("electronic", "haar", 1, 2**64 - 1): "0382e60e2f8dbc67374844343b9eb6259c5d196e5911ec7626eb6e93161d3202",
    ("electronic", "haar", 50, 5): "7f9bd0dffe5bc3e1736cfaef70dc12a805eaf66d04bc698dbe7b82d0d70428eb",
    ("electronic", "haar", 50, 2**64 - 1): "6d2a7d0a55648003e4a136281f0bccba3fe2d699efd8f32d6f190a860161bfdc",
    ("electronic", "haar", 1025, 5): "41f1d89c5c498e75f99b0e4b368c6d1a107d83da497cc2835d3fe1084986aa44",
    ("electronic", "haar", 1025, 2**64 - 1): "f0515fc1df8efe69ef100fc555835e7c3de6b9d948eb0292278314d54d649d28",
    ("coldatom", "fixed", 1, 5): "2df4803804d04f2228ade6aa39643a4cd2482a9fac560b64f492e11109f24867",
    ("coldatom", "fixed", 1, 2**64 - 1): "c6e834762a8c5bab614883b9afb22045e4a8494c5d54e11a01d70e6dc3cf5fd1",
    ("coldatom", "fixed", 50, 5): "9f5f39035aa73d34abc66845e6cb2baa38197cb7ad04377b1ef75617074ced99",
    ("coldatom", "fixed", 50, 2**64 - 1): "07ac43a28f66f29c9f426f3ba5064d22e50f21c8f2e0149e28c39e3ef0ea79da",
    ("coldatom", "fixed", 1025, 5): "4e9a89670d44254c1f80563f90ae9be8baa5cdc2ba2e6b4a9c9cf5249d412273",
    ("coldatom", "fixed", 1025, 2**64 - 1): "bdf976f48c04507d0aa073b0a895793823e39a6b503d3f4f34452d6d924c6683",
    ("coldatom", "haar", 1, 5): "5e0e7f4a7e46b67430ebce18e22f98e696b27c771d38aa853a1eab3ff4a7385a",
    ("coldatom", "haar", 1, 2**64 - 1): "5bd0bbcb44c6c6ccdd3cc989ea4d1158ff819331f3e0d5d870c62f1045e134f1",
    ("coldatom", "haar", 50, 5): "c69311134a112748b8be425703daddd11aa6fdcaac6913b9634eab5288d3cf85",
    ("coldatom", "haar", 50, 2**64 - 1): "9f928a6e0037df926c1efd77423a0c92d633d1dc3f5c530d3954e807f3bcb352",
    ("coldatom", "haar", 1025, 5): "a8fa346b2bf9e4b921c19216671556417c5daba4e8bf46b952c7eb003171e8e4",
    ("coldatom", "haar", 1025, 2**64 - 1): "531178502a9481c141952431796d8a7ab3b70aa14f7e1d36e2704d23378603b2",
}


@pytest.mark.parametrize("variant, g_kind, n, seed", list(_DIGESTS))
def test_report_digest(variant, g_kind, n, seed):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    report = run_trials(g, variant, n, seed=seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == _DIGESTS[variant, g_kind, n, seed]
