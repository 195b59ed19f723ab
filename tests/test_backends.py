"""The vectorised batch engine must reproduce the step-by-step path trial by trial.

``run_teleport_once`` on the stream ``trial_rng(seed, i)`` is the reference:
the engine reads the same uniforms from the vectorised stream, so branch and
round decisions agree exactly and fidelities agree to rounding.
"""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

import edgeteleport._kernels as kernels
import edgeteleport.protocol as protocol
from edgeteleport.fock import (
    TELEPORT_MODES,
    HermitianOperator,
    StateVector,
    annihilation_matrix,
    create,
    vacuum_state,
)
from edgeteleport.gates import apply_gate, cnot, gate_unitary, hadamard
from edgeteleport.hubbard import CouplingParams, build_h_int
from edgeteleport.measure import (
    integer_class_projector,
    measure_spin,
    measure_spin_class,
    spin_sector_bases,
)
from edgeteleport.protocol import (
    SpinAmplitudes,
    bob_correction,
    bob_fidelity,
    default_backend,
    prepare_initial,
    run_teleport_once,
    run_trials,
    trial_rng,
)
from edgeteleport.relax import relax_to_ground


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
@pytest.mark.parametrize("seed", [0, 13, 99, 2**64 - 1])
def test_engine_matches_oracle(variant, g, seed):
    _assert_engine_matches_oracle(g, variant, 150, seed)


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_engine_matches_oracle_across_chunks(variant):
    _assert_engine_matches_oracle(None, variant, protocol._CHUNK + 37, 5)


@pytest.mark.parametrize("g", [SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["fixed", "haar"])
def test_coldatom_engine_matches_oracle_past_the_predrawn_blocks(g):
    # a chunk draws its first block row (four draws per trial) up front and
    # later rows when some trial first reads them
    rounds = _assert_engine_matches_oracle(g, "coldatom", protocol._CHUNK + 37, 8)
    # a trial's last draw, its branch draw, has index (Haar draws) + rounds;
    # the case is covered only if both chunks read a third block row
    first = 0 if g is not None else 3
    last = first + rounds
    assert last[:protocol._CHUNK].max() >= 8 and last[protocol._CHUNK:].max() >= 8


def test_restart_loop_reads_the_draw_table_once_per_block_row():
    # rounds are counted over the block rows drawn so far, so the engine reads
    # the table once, once per added row and once for the branch draws, not
    # once per round
    g, n = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), protocol._CHUNK
    draws, stops = protocol._Draws(8, 0, n), []

    def upto(stop):
        stops.append(stop)
        return draws.upto(stop)

    _, rounds, _ = kernels.coldatom_batch(protocol._kernel_setup("coldatom"),
                                          np.array([[g.g1, g.g2]]), np.zeros(n, dtype=np.int64),
                                          upto, 0, protocol.DEFAULT_MAX_ROUNDS)
    assert rounds.max() >= 8  # a third block row, and more rounds than table reads
    assert len(stops) <= draws.u.shape[1] // 4 + 1


def test_threads_running_at_once_give_the_sequential_reports():
    # each thread draws from its own Philox, reset before every block row;
    # more threads than cores, switching every microsecond
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    jobs = [(None, "electronic", 3000, 21), (g, "coldatom", 1500, 22),
            (None, "electronic", 3000, 2**64 - 1), (g, "coldatom", 1500, 23)]
    expected = [run_trials(*job[:3], seed=job[3]).to_json() for job in jobs]
    start, got = threading.Barrier(len(jobs)), [None] * len(jobs)

    def work(i):
        start.wait(timeout=60)
        got[i] = [run_trials(*jobs[i][:3], seed=jobs[i][3]).to_json() for _ in range(8)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[e] * 8 for e in expected]


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_no_fidelity_exceeds_one(variant):
    # rounding puts Bob's overlap above his trace on about one Haar trial in
    # 15; capped, no per-trial fidelity and so no report exceeds 1
    chunks = protocol._run_trials_batched(None, variant, 3000, 5, protocol.DEFAULT_MAX_ROUNDS)
    assert max(float(fids.max()) for _, _, fids in chunks) <= 1.0
    assert _oracle(None, variant, 300, 5)[2].max() <= 1.0
    for seed in (0, 7, 2**64 - 1):
        report = run_trials(None, variant, 1, seed=seed)
        assert report.min_fidelity <= 1.0 and report.mean_fidelity <= 1.0


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


def _miss(g):
    """The cold-atom state after one half-odd class outcome, as the library gives it."""
    psi = prepare_initial(g, "coldatom")
    return measure_spin_class(psi, protocol.ALICE_WIRES, _Uniforms([1.0]))[1]


def _pair_hamiltonian(sign):
    """``-A^dag A`` with the pair annihilator ``A = a_dn a_up + sign * b_dn b_up``:
    in the a-b sector of the cold-atom miss its ground state is the pair
    state ``a doublon + sign * b doublon``."""
    c = [annihilation_matrix(TELEPORT_MODES, TELEPORT_MODES.index(w, s))
         for w in "ab" for s in ("up", "dn")]
    pair = c[1] @ c[0] + sign * (c[3] @ c[2])
    return HermitianOperator(TELEPORT_MODES, -pair.conj().T @ pair)


def _setup_with(h, monkeypatch):
    """A fresh cold-atom setup whose relaxation Hamiltonian is ``h``."""
    monkeypatch.setattr(protocol, "_relax_hamiltonian", lambda: h)
    return protocol._kernel_setup.__wrapped__("coldatom")


@pytest.mark.parametrize("seed", [3, 4])
def test_certified_relaxation_restores_every_input_in_the_library(seed):
    # the setup certifies it; the library's relaxation agrees input by input
    setup, h = protocol._kernel_setup("coldatom"), protocol._relax_hamiltonian()
    rng = np.random.default_rng(seed)
    for gi in np.stack(protocol._haar_amplitudes(rng.random((40, 3))), axis=1):
        g = SpinAmplitudes(*gi)
        relaxed = relax_to_ground(_miss(g), h).amps
        initial = prepare_initial(g, "coldatom").amps
        assert abs(abs(np.vdot(initial, relaxed)) - 1.0) <= 1e-12
        p = kernels._norm2(gi[None, :] @ setup["integer_part"])[0]
        assert abs(p - np.linalg.norm(integer_class_projector(TELEPORT_MODES, protocol.ALICE_WIRES)
                                      @ relaxed) ** 2) <= 1e-12


def test_setup_raises_where_the_library_finds_the_miss_orthogonal(monkeypatch):
    # the cold-atom miss is (a doublon + b doublon) on a-b; this ground state
    # is orthogonal to it, so the weight multiple kappa is 0
    h = _pair_hamiltonian(-1.0)
    with pytest.raises(RuntimeError, match="orthogonal"):
        relax_to_ground(_miss(SpinAmplitudes(1.0, 0.0)), h)
    with pytest.raises(RuntimeError, match=r"not certified.*relative residual .*kappa"):
        _setup_with(h, monkeypatch)


@pytest.mark.parametrize("h", [_pair_hamiltonian(0.0),  # the a doublon alone
                               build_h_int(CouplingParams(e2=1.0, lam=0.01), TELEPORT_MODES)],
                         ids=["doublon", "h_int"])
def test_setup_raises_where_relaxation_leaves_the_input(h, monkeypatch):
    # the library relaxes the miss to some other state: later rounds would
    # not repeat round 1, and the fold would be wrong
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    relaxed = relax_to_ground(_miss(g), h).amps
    assert abs(np.vdot(prepare_initial(g, "coldatom").amps, relaxed)) < 0.99
    with pytest.raises(RuntimeError, match=r"not a multiple of the inputs \(relative residual"):
        _setup_with(h, monkeypatch)


@pytest.mark.parametrize("g", [SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["fixed", "haar"])
def test_each_chunk_measures_once_on_input_coordinates(g, monkeypatch):
    shapes = []
    real = kernels._measure_and_correct

    def spy(setup, x, g_rows, of, u):
        shapes.append((x.shape, len(of)))
        return real(setup, x, g_rows, of, u)

    monkeypatch.setattr(kernels, "_measure_and_correct", spy)
    n = protocol._CHUNK + 37
    chunks = list(protocol._run_trials_batched(g, "coldatom", n, 3, protocol.DEFAULT_MAX_ROUNDS))
    rows = [1, 1] if g is not None else [protocol._CHUNK, 37]
    assert shapes == [((m, 2), k) for m, k in zip(rows, [protocol._CHUNK, 37])]
    assert max(int(rounds.max()) for _, rounds, _ in chunks) >= 5


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
        kernels.coldatom_batch(setup, *rows, lambda stop: u, 0, protocol.DEFAULT_MAX_ROUNDS)
        for rows in (shared, per_trial))
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(r1, r2)
    assert np.abs(f1 - f2).max() <= 1e-15
    assert r1.max() >= 5  # the shared row went through several restarts


def test_outcome_outside_the_branches_raises_naming_it():
    # one electron on c and none on a: Alice's c-a spin is 1/2 after her gates
    lone = create(vacuum_state(TELEPORT_MODES), "c", "up").amps
    setup = protocol._folded(lone[None, :])
    with pytest.raises(RuntimeError, match=r"Alice measured \(J, Jz\) = \(0\.5, -?0\.5\)"):
        kernels._measure_and_correct(setup, np.ones((1, 1), dtype=complex), np.array([[1.0, 0.0]]),
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
    # which branch's correction the engine applies, and no trial reads the
    # other three branches' fidelities
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
    # the engine's setup folded on the states themselves: row k is the kth state
    branches, fids = kernels._measure_and_correct(protocol._folded(x), np.eye(m, dtype=complex),
                                                  g, of, u)
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
        branches, _, fids = kernels.coldatom_batch(setup, row, of, lambda stop: u, 0,
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
  "rng": "philox4x64-10/v2",
  "branch_counts": {
    "1,1": 78,
    "1,0": 71,
    "1,-1": 66,
    "0,0": 85
  },
  "rounds_histogram": {
    "1": 300
  },
  "mean_rounds": 1.0,
  "min_fidelity": 0.9999999999999998,
  "mean_fidelity": 0.9999999999999998
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
  "rng": "philox4x64-10/v2",
  "branch_counts": {
    "1,1": 77,
    "1,0": 71,
    "1,-1": 82,
    "0,0": 70
  },
  "rounds_histogram": {
    "1": 300
  },
  "mean_rounds": 1.0,
  "min_fidelity": 0.9999999999999998,
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
  "rng": "philox4x64-10/v2",
  "branch_counts": {
    "1,1": 77,
    "1,0": 80,
    "1,-1": 73,
    "0,0": 70
  },
  "rounds_histogram": {
    "1": 155,
    "2": 71,
    "3": 40,
    "4": 15,
    "5": 10,
    "6": 3,
    "7": 3,
    "8": 2,
    "11": 1
  },
  "mean_rounds": 1.9766666666666666,
  "min_fidelity": 0.9999999999999998,
  "mean_fidelity": 0.9999999999999998
}
""",
}


@pytest.mark.parametrize("variant, g_kind, seed", list(_GOLDEN))
def test_golden_report_bytes(variant, g_kind, seed):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    report = run_trials(g, variant, 300, seed=seed)
    assert report.to_json() == _GOLDEN[variant, g_kind, seed]
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


# SHA-256 of the report JSON over both engine variants, fixed and Haar inputs,
# one trial, part of a chunk and past a chunk, a small and the largest seed.
_DIGESTS = {
    ("electronic", "fixed", 1, 5): "3c1a2f8836419d03dbd877a21af4e53f784181ffa11ab51c74777da34f020657",
    ("electronic", "fixed", 1, 2**64 - 1): "00384edc937e5d00c376d8041c192321f9db21d8c6f07d0ee443ddcaa1b7d7f2",
    ("electronic", "fixed", 50, 5): "e074693dea8453c10063f84c56ed224dfdac8999482cb2c9da8ddf29932c6584",
    ("electronic", "fixed", 50, 2**64 - 1): "5b171d17c7e4799ea80a16e6e6357ce877882b1d65f34f8311a63bddf299d84f",
    ("electronic", "fixed", 1025, 5): "f582e245be12b52ac2d1695cdbd496435bab84fa725d964152299938e8258026",
    ("electronic", "fixed", 1025, 2**64 - 1): "ec6fa13cc40ec2a7568beabb42e6a004796e70cc907c8db13953c71002a55c4d",
    ("electronic", "haar", 1, 5): "0408bd8db34b3ddda90cef2a57efee8dff60843baa07426b77aa2743c055f24e",
    ("electronic", "haar", 1, 2**64 - 1): "4d305905a50f4106fce809a5f6015f72a19b59636a7f9503e41a515cb5febbf8",
    ("electronic", "haar", 50, 5): "c0ca6b441815de53ad6df2398830b43796c4fe877eec00c142e8ba9cc45f0fd6",
    ("electronic", "haar", 50, 2**64 - 1): "595609328b5fea49819c3d1c16490cec5a380ee2e8ed2e7b1052e4fb9564637a",
    ("electronic", "haar", 1025, 5): "e7d30d2faca96df8f17bb258f81d296a255f28b88e83e0da687d72d364ca03a2",
    ("electronic", "haar", 1025, 2**64 - 1): "e1bc9e195e2772c9a3213ee6282b3e2d500da1f474744f467a3747e46cf3dd66",
    ("coldatom", "fixed", 1, 5): "62c9b280df5d314665e210d8b0929626c2336122ee520cf6be1c2eb136ee7eca",
    ("coldatom", "fixed", 1, 2**64 - 1): "dcf0adb5cbb412729ad6be2a13247c3129c3b2ae9b21a0d74cf278b892482612",
    ("coldatom", "fixed", 50, 5): "a1f763cc9fe3f64a016192803e50b529ade05606ba6f129191f2125a16bbc8fc",
    ("coldatom", "fixed", 50, 2**64 - 1): "89694a5f86a806e1c7b145fa5eb311e3c15b9f5a74e27bf259f4eea881957193",
    ("coldatom", "fixed", 1025, 5): "cd23a6a66b6d08955b1c9072f55c7f327ddaf0053d0a7dcbe61a4cbdd07df66e",
    ("coldatom", "fixed", 1025, 2**64 - 1): "697e24a3c93837eeb3209d1eb1719260aceacaa24d1733cf5b1bef78281db951",
    ("coldatom", "haar", 1, 5): "662ea3a54cc324beca77402d28847ec2b3a5acf43938de6c46968d3b20411766",
    ("coldatom", "haar", 1, 2**64 - 1): "37f580ebcfaf600288cffc45e73a8073fe7234afa7c131bf8934c7c6d689bdd1",
    ("coldatom", "haar", 50, 5): "033912be3bb7e9ae78da5a3ad0975df1a71d3041ddad19dd33401d2982d2dc81",
    ("coldatom", "haar", 50, 2**64 - 1): "38ac64556d425d60d233558dbf3e160e435cb8d4e796bcce316451193e5c96f7",
    ("coldatom", "haar", 1025, 5): "e0fd3614e66bfe2191112d3b0ce50a3bdf0d24ae0534d61df853a38f4cc09696",
    ("coldatom", "haar", 1025, 2**64 - 1): "63e6149312afb4458fa30fef11e90f74ad301c3e855b2cf89b8a5f26efce598d",
}


@pytest.mark.parametrize("variant, g_kind, n, seed", list(_DIGESTS))
def test_report_digest(variant, g_kind, n, seed):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    report = run_trials(g, variant, n, seed=seed)
    text = report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _DIGESTS[variant, g_kind, n, seed]
    assert text == json.dumps(report.to_dict(), indent=2) + "\n"
