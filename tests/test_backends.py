"""The vectorised batch engine must reproduce the step-by-step path trial by trial.

``run_teleport_once`` on the stream ``trial_rng(seed, i)`` is the reference:
the engine reads the same uniforms from the vectorised stream, so branch and
round decisions agree exactly and fidelities agree to rounding.
"""

import numpy as np
import pytest

import edgeteleport._kernels as kernels
import edgeteleport.protocol as protocol
from edgeteleport.fock import TELEPORT_MODES, StateVector, create, vacuum_state
from edgeteleport.protocol import (
    SpinAmplitudes,
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
