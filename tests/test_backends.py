"""The vectorised batch engine must reproduce the step-by-step path trial by trial.

``run_teleport_once`` on the stream ``trial_rng(seed, i)`` is the reference,
and ``run_teleport_mixed`` for mixed resources: the engine reads the same
uniforms from the vectorised stream, so branch and round decisions agree
exactly and fidelities agree to rounding.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeteleport
import edgeteleport.protocol as protocol
from edgeteleport.fock import (
    AB_MODES,
    TELEPORT_MODES,
    DensityMatrix,
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
    run_teleport_mixed,
    run_teleport_once,
    run_trials,
    trial_rng,
)
from edgeteleport.relax import relax_to_ground, sector_ground_spaces


def _norm(g):
    """The engine's input for the fixed input ``g``: its squared norm, a float."""
    a, b, c, d = g.g1.real, g.g1.imag, g.g2.real, g.g2.imag
    return (a * a + b * b) + (c * c + d * d)


def _run_norm(g):
    """The squared norm ``run_trials`` gives the engine: ``_norm(g)``, or 1 for Haar inputs."""
    return _norm(g) if g is not None else 1.0


def _fidelity(n):
    """Bob's fidelity at the squared norm ``n``, ``sqrt(min(n, 1))``: every
    trial's in a run, as ``run_trials`` reports it
    (``test_report_fidelity_is_the_runs_one_fidelity``)."""
    return math.sqrt(min(n, 1.0))


def _batched(g, variant, n, seed, resource=None):
    """The engine's ``(branches, rounds)`` chunks of a run, at ``run_trials``'s norm."""
    return protocol._run_trials_batched(g, variant, n, seed, _run_norm(g), resource)


#: Columns of a hand-made draw table: whole Philox blocks of 4 draws, and at
#: least ``first + MAX_ROUNDS + 1`` for ``first = 0``, so the engine draws none.
_WIDTH = protocol.MAX_ROUNDS + 4


def _draws_of(table):
    """A chunk's draws whose table is the hand-made ``table``, for the engine."""
    assert table.shape[1] % 4 == 0 and table.shape[1] > protocol.MAX_ROUNDS
    draws = protocol._Draws(0, 0, len(table))
    draws.u = table
    return draws


def _per_trial(chunks, fidelity):
    """A run's ``(branches, rounds)`` chunks and its one fidelity as three
    per-trial arrays, the fidelity repeated over every trial."""
    branches, rounds = map(np.concatenate, zip(*chunks))
    return branches, rounds, np.full(len(branches), fidelity)


#: An input ``SpinAmplitudes.normalized`` gives at each squared norm it reaches
#: on small integer amplitudes, 6 ulps below 1 to 2 above, by that norm.
_NORMALIZED = {
    0.9999999999999994: (1, 2 + 4j),
    0.9999999999999996: (1j, 2 + 2j),
    0.9999999999999997: (2j, 3 + 6j),
    0.9999999999999998: (1, 1),
    0.9999999999999999: (1, 2),
    1.0: (1, 4),
    1.0000000000000002: (1, 5),
    1.0000000000000004: (1j, 4 + 7j),
}


def _oracle(g, variant, n, seed):
    branches, rounds, fids = [], [], []
    for i in range(n):
        rng = trial_rng(seed, i)
        gi = g if g is not None else SpinAmplitudes.haar(rng)
        res = run_teleport_once(gi, variant, rng)
        branches.append(protocol.BRANCHES.index(res.branch))
        rounds.append(res.rounds)
        fids.append(res.fidelity)
    return np.array(branches), np.array(rounds), np.array(fids)


def _assert_engine_matches_oracle(g, variant, n, seed):
    branches, rounds, fids = _per_trial(_batched(g, variant, n, seed), _fidelity(_run_norm(g)))
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


@pytest.mark.parametrize("g, seed", [(SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), 27),
                                     (None, 22)], ids=["fixed", "haar"])
def test_coldatom_engine_matches_oracle_past_the_predrawn_blocks(g, seed, monkeypatch):
    # a chunk draws up front the block rows its longest trial almost always
    # needs, and a later row only when some trial still reads it; these seeds
    # run a chunk that needs such a row (both chunks, for the Haar seed)
    grew, real = {}, protocol._Draws.upto

    def upto(self, stop):
        before = self.u.shape[1]
        u = real(self, stop)
        grew.setdefault(self, []).append(u.shape[1] > before)
        return u

    monkeypatch.setattr(protocol._Draws, "upto", upto)
    n = protocol._CHUNK + 37
    list(_batched(g, "coldatom", n, seed))
    monkeypatch.undo()
    # per chunk: the first call draws the rows up front, later ones on demand
    on_demand = [any(calls[1:]) for calls in grew.values()]
    assert on_demand == ([True, False] if g is not None else [True, True])
    _assert_engine_matches_oracle(g, "coldatom", n, seed)


def test_restart_loop_reads_the_draw_table_once_per_block_row(monkeypatch):
    # rounds are counted over the block rows drawn so far, so the engine asks
    # for draws once per added row and once for the branch draws, not once
    # per round
    g, n = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), protocol._CHUNK
    draws, stops, real = protocol._Draws(8, 0, n), [], protocol._Draws.upto

    def upto(self, stop):
        stops.append(stop)
        return real(self, stop)

    monkeypatch.setattr(protocol._Draws, "upto", upto)
    _, rounds = protocol.coldatom_batch(_norm(g), draws, 0)
    assert rounds.max() >= 8  # a third block row, and more rounds than table reads
    assert len(stops) <= draws.u.shape[1] // 4


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
    # rounding can put Bob's overlap above his trace; capped, no fidelity of
    # the step-by-step path, and no report's, exceeds 1, also at the squared
    # norms above 1 that SpinAmplitudes.normalized gives
    assert _oracle(None, variant, 300, 5)[2].max() <= 1.0
    above = [SpinAmplitudes.normalized(*x) for n, x in _NORMALIZED.items() if n > 1]
    for g in (None, *above):
        for trials, seed in ((1, 0), (1, 7), (1, 2**64 - 1), (3000, 5)):
            report = run_trials(g, variant, trials, seed=seed)
            assert report.min_fidelity <= 1.0 and report.mean_fidelity <= 1.0


@pytest.mark.parametrize("variant", ["electronic", "coldatom", "mixed"])
def test_report_fidelity_is_the_runs_one_fidelity(variant):
    # every trial of a run has Bob's fidelity sqrt(min(n, 1)) at the run's
    # one squared norm n, so the report's mean is its minimum, bit for bit,
    # at every squared norm SpinAmplitudes.normalized gives and for Haar
    # inputs; a sum of equal floats over their count need not give the float
    inputs = [SpinAmplitudes.normalized(*x) for x in _NORMALIZED.values()]
    assert [_norm(g) for g in inputs] == list(_NORMALIZED)
    for g in (*inputs, None):
        for trials in (1, 5, protocol._CHUNK, protocol._CHUNK + 1, 3000):
            report = run_trials(g, variant, trials)
            assert report.mean_fidelity == report.min_fidelity == _fidelity(_run_norm(g)), \
                (g, trials)


def test_overlap_above_the_trace_is_capped():
    # Bob's overlap over his trace is the squared norm n: above 1 by more
    # than rounding, it still gives fidelity 1; SpinAmplitudes.normalized
    # exceeds 1 by too little for sqrt to show, so this checks the cap itself,
    # at inputs SpinAmplitudes still takes (|n - 1| <= 1e-12)
    for norm, variant in itertools.product((1.0 + 1e-13, 1.0 + 5e-13), protocol.VARIANTS):
        assert math.sqrt(norm) > 1.0  # uncapped, the fidelity would exceed 1
        report = run_trials(SpinAmplitudes(math.sqrt(norm), 0.0), variant, 5)
        assert report.min_fidelity == report.mean_fidelity == 1.0
        assert type(report.min_fidelity) is float and type(report.mean_fidelity) is float


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


def test_restart_cap_raises_exactly_where_the_oracle_needs_more_rounds(monkeypatch):
    longest = int(_oracle(None, "coldatom", 60, 4)[1].max())
    assert longest >= 2
    monkeypatch.setattr(protocol, "MAX_ROUNDS", longest)
    rep = run_trials(None, "coldatom", 60, seed=4)
    assert max(rep.rounds_histogram) == longest
    monkeypatch.setattr(protocol, "MAX_ROUNDS", longest - 1)
    with pytest.raises(RuntimeError, match=f"no integer-spin outcome in {longest - 1} rounds"):
        run_trials(None, "coldatom", 60, seed=4)


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


def _grams(variant):
    """:func:`protocol._folded`'s Gram matrices of a variant's fold, as the setup
    certifies them; a cold-atom fold's with its class Gram matrix ``class``."""
    inputs = protocol._inputs(variant)
    if variant == "electronic":
        return protocol._folded(inputs)
    x1 = inputs @ integer_class_projector(TELEPORT_MODES, protocol.ALICE_WIRES).T
    return {**protocol._folded(x1), "class": x1 @ x1.conj().T}


def _setup_with(h, monkeypatch):
    """A fresh cold-atom setup whose relaxation Hamiltonian is ``h``."""
    monkeypatch.setattr(protocol, "_relax_hamiltonian", lambda: h)
    return protocol._kernel_setup.__wrapped__("coldatom")


@pytest.mark.parametrize("seed", [3, 4])
def test_certified_relaxation_restores_every_input_in_the_library(seed):
    # the setup certifies it; the library's relaxation agrees input by input
    protocol._kernel_setup("coldatom")
    grams, h = _grams("coldatom"), protocol._relax_hamiltonian()
    rng = np.random.default_rng(seed)
    for gi in np.stack(protocol._haar_amplitudes(rng.random((40, 3))), axis=1):
        g = SpinAmplitudes(*gi)
        relaxed = relax_to_ground(_miss(g), h).amps
        initial = prepare_initial(g, "coldatom").amps
        assert abs(abs(np.vdot(initial, relaxed)) - 1.0) <= 1e-12
        p = (gi @ grams["class"] @ gi.conj()).real
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
    norms, shapes = [], []
    real_batch, real_measure = protocol.coldatom_batch, protocol._measure_and_correct

    def batch(n, *args):
        norms.append((n, type(n)))
        return real_batch(n, *args)

    def spy(u, s):
        shapes.append((s, len(u)))
        return real_measure(u, s)

    monkeypatch.setattr(protocol, "coldatom_batch", batch)
    monkeypatch.setattr(protocol, "_measure_and_correct", spy)
    report = run_trials(g, "coldatom", protocol._CHUNK + 37, seed=3)
    # a run has one squared norm, a float shared by every trial: F0 + F1 of
    # a fixed g, and 1 for Haar inputs, whose u0 + (1 - u0) rounds to 1;
    # each chunk measures once, on a hit's rescaled state (running sums times 1)
    assert norms == [(_run_norm(g), float)] * 2
    assert shapes == [(1.0, k) for k in (protocol._CHUNK, 37)]
    assert max(report.rounds_histogram) >= 5


def test_report_aggregates_chunks_as_the_array_path_does():
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 60, size=37)
    chunks = [(rng.integers(0, 4, size=k), rng.geometric(0.5, size=k)) for k in sizes]
    fid = math.sqrt(1 - 4e-13)
    for part in (chunks[:1], chunks):
        b, r, _ = _per_trial(part, fid)
        rep = protocol._assemble_report("coldatom", 0, None, fid, iter(part))
        assert rep.trials == len(b)
        assert list(rep.branch_counts.values()) == np.bincount(b, minlength=4).tolist()
        assert rep.rounds_histogram == {int(k): int(c)
                                        for k, c in zip(*np.unique(r, return_counts=True))}
        assert rep.mean_rounds == float(np.mean(r))
        # the run's one fidelity is every trial's: the minimum and the mean
        assert rep.min_fidelity == rep.mean_fidelity == fid


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
    # one squared norm shared by n trials gives each trial the step-by-step
    # path's branch, rounds and fidelity
    n, norm = 400, _norm(g)
    u = np.random.default_rng(23).random((n, _WIDTH))

    b1, _ = protocol.electronic_batch(norm, u[:, 0])
    expected = np.array([_step_by_step(g, "electronic", row[:1]) for row in u])
    np.testing.assert_array_equal(b1, expected[:, 0])
    assert np.abs(_fidelity(norm) - expected[:, 2]).max() <= 1e-15

    b1, r1 = protocol.coldatom_batch(norm, _draws_of(u), 0)
    expected = np.array([_step_by_step(g, "coldatom", row) for row in u])
    np.testing.assert_array_equal(b1, expected[:, 0])
    np.testing.assert_array_equal(r1, expected[:, 1])
    assert np.abs(_fidelity(norm) - expected[:, 2]).max() <= 1e-15
    assert r1.max() >= 5  # the shared norm went through several restarts

    # a round-1 class probability p1 equal to p changes nothing; p1 = 2.0, a
    # certain hit, stops every trial in round 1, even at the largest draw
    same = protocol.coldatom_batch(norm, _draws_of(u), 0, 0.5 * norm)
    for a, b in zip(same, (b1, r1), strict=True):
        np.testing.assert_array_equal(a, b)
    top = u.copy()
    top[:, 0] = 1 - 2.0**-53
    branches, rounds = protocol.coldatom_batch(norm, _draws_of(top), 0, 2.0)
    assert (rounds == 1).all()
    np.testing.assert_array_equal(branches, protocol._measure_and_correct(top[:, 1], 1.0))


def test_outcome_outside_the_branches_raises_naming_it():
    # one electron on c and none on a: Alice's c-a spin is 1/2 after her gates,
    # and the setup refuses the fold before any trial runs on it
    lone = create(vacuum_state(TELEPORT_MODES), "c", "up").amps
    with pytest.raises(RuntimeError, match=r"Alice can measure \(J, Jz\) = \(0\.5, -?0\.5\)"):
        protocol._folded(np.outer([1.0, 0.0], lone))  # the input (1, 0) folds to lone


def test_setup_ignores_outside_sectors_below_its_threshold():
    # a fold whose half-odd weight is 1e-13 of the whole still builds, and its
    # branch Gram matrices are those of the branch state alone; 1e-11 raises
    x = _one_branch_states(0)[0]
    lone = create(vacuum_state(TELEPORT_MODES), "c", "up").amps
    for eps, refused in ((1e-13, False), (1e-11, True)):
        rows = np.outer([1.0, 0.0], np.sqrt(1 - eps) * x + np.sqrt(eps) * lone)
        if refused:
            with pytest.raises(RuntimeError, match="no correction for Bob"):
                protocol._folded(rows)
            continue
        alice = protocol._folded(rows)["branch"]  # one Gram matrix per branch
        expected = np.zeros((4, 2, 2))
        expected[0, 0, 0] = 1 - eps  # |g1|^2 (1 - eps) in branch 0, nothing in the others
        assert np.abs(alice - expected).max() <= 1e-12


class _Uniforms:
    """Stands in for a trial's generator: the step-by-step path reads its
    uniforms one ``random()`` call at a time, in stream order."""

    def __init__(self, u):
        self.u = iter(u)

    def random(self):
        return next(self.u)


def _step_by_step(g, variant, draws):
    """Branch index and fidelity of the step-by-step path on the input ``g``
    (anything with ``g1`` and ``g2``) and the uniforms ``draws``."""
    res = protocol._teleport(prepare_initial(g, variant), g, _Uniforms(draws),
                             restarts=variant == "coldatom")
    return protocol.BRANCHES.index(res.branch), res.rounds, res.fidelity


def _one_branch_states(branch):
    """40 generic unit states whose rows Alice's gates take into one branch sector."""
    sectors = spin_sector_bases(TELEPORT_MODES, protocol.ALICE_WIRES)
    basis = next(b for j, m, b in sectors if (j, m) == protocol.BRANCHES[branch])
    u_alice = (gate_unitary(hadamard("c"), TELEPORT_MODES)
               @ gate_unitary(cnot("c", "a"), TELEPORT_MODES))
    rng = np.random.default_rng(41 + branch)
    c = rng.normal(size=(basis.shape[1], 40)) + 1j * rng.normal(size=(basis.shape[1], 40))
    x = c.T @ basis.T @ u_alice.conj()  # Alice's gates take each row into the sector
    return x / np.linalg.norm(x, axis=1)[:, None]


def _short_inputs(seed, low, trials=256):
    """40 Haar-random inputs scaled by factors in [low, 1), with their squared
    norms ``n``, and ``trials`` trials' input indices and positions in [0.01, 0.99].

    ``SpinAmplitudes`` refuses such inputs, so they are plain objects with
    ``g1`` and ``g2``; the step-by-step path's arithmetic takes them, and
    their fidelities ``sqrt(n)`` are generic, not the protocol's 1.
    """
    rng = np.random.default_rng(seed)
    g = np.stack(protocol._haar_amplitudes(rng.random((40, 3))), axis=1)
    g *= rng.uniform(low, 1.0, (40, 1))
    inputs = [types.SimpleNamespace(g1=g1, g2=g2) for g1, g2 in g]
    norms = [float(_norm(gk)) for gk in inputs]
    return inputs, norms, rng.integers(0, 40, trials), rng.uniform(0.01, 0.99, trials)


def _one_call_per_input(norms, of, call):
    """``call(n, rows)`` once per input, on the trials ``rows`` of that input
    (``of == k``) at its squared norm ``n``, as a run has one norm; the
    results in trial order, with each input's run fidelity (:func:`_fidelity`)."""
    branches, rounds, fids = (np.zeros(len(of), dtype) for dtype in (np.intp, np.int64, float))
    for k in np.unique(of):
        rows = np.flatnonzero(of == k)
        branches[rows], rounds[rows] = call(norms[k], rows)
        fids[rows] = _fidelity(norms[k])
    return branches, rounds, fids


@pytest.mark.parametrize("branch", range(len(protocol.BRANCHES)))
def test_bob_step_with_every_trial_in_one_branch(branch):
    # an electronic branch draw compares with the running sums
    # (1/4, 1/2, 3/4) * n, and Bob's overlap over his trace is n: draws in one
    # quarter of n put every trial in that branch, at fidelity sqrt(n), on
    # the engine as on the step-by-step path
    inputs, norms, of, r = _short_inputs(41 + branch, 0.5)
    u = (branch + r) / 4 * np.take(norms, of)
    branches, _, fids = _one_call_per_input(
        norms, of, lambda n, rows: protocol.electronic_batch(n, u[rows]))
    assert set(branches.tolist()) == {branch}
    expected = np.array([_step_by_step(inputs[k], "electronic", [x]) for k, x in zip(of, u)])
    np.testing.assert_array_equal(branches, expected[:, 0])
    assert np.abs(fids - expected[:, 2]).max() <= 1e-15
    assert np.ptp(fids) > 0.1  # generic fidelities, not the protocol's 1


@pytest.mark.parametrize("branch", range(len(protocol.BRANCHES)))
def test_coldatom_bob_step_reads_generic_fidelities_at_class_probability_one_half(branch):
    # a cold-atom round hits with p = n / 2, and a hit's state is scaled by
    # 1 / sqrt(p): its branch draw compares with (1/4, 1/2, 3/4), not times n,
    # while Bob's overlap over his trace stays n.  Class draws 0.75 (a miss,
    # p <= 1/2) and then 0.25 (a hit, p >= 0.28) stop every trial in round 2;
    # the step-by-step path relaxes its miss to the normalised initial state
    inputs, norms, of, r = _short_inputs(45 + branch, 0.75)
    table = np.zeros((len(of), _WIDTH))
    table[:, 0], table[:, 1], table[:, 2] = 0.75, 0.25, (branch + r) / 4
    branches, rounds, fids = _one_call_per_input(norms, of, lambda n, rows: protocol.coldatom_batch(
        n, _draws_of(table[rows]), 0))
    assert set(branches.tolist()) == {branch} and set(rounds.tolist()) == {2}
    expected = np.array([_step_by_step(inputs[k], "coldatom", row[:3]) for k, row in zip(of, table)])
    np.testing.assert_array_equal(branches, expected[:, 0])
    np.testing.assert_array_equal(rounds, expected[:, 1])
    assert np.abs(fids - expected[:, 2]).max() <= 1e-15
    assert np.ptp(fids) > 0.1


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_bob_step_with_a_fixed_input_on_all_four_branches(variant):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5)
    n = protocol._CHUNK
    u = np.random.default_rng(43).random((n, _WIDTH))
    norm = _norm(g)
    if variant == "electronic":
        branches, _ = protocol.electronic_batch(norm, u[:, 0])
    else:
        branches, _ = protocol.coldatom_batch(norm, _draws_of(u), 0)
    assert set(branches.tolist()) == set(range(len(protocol.BRANCHES)))
    expected = [run_teleport_once(g, variant, _Uniforms(u[i])).fidelity for i in range(n)]
    assert np.abs(_fidelity(norm) - np.array(expected)).max() <= 1e-15


def test_setup_forms_certify_the_papers_probabilities():
    # the Gram matrices hold for every input at once: each of Alice's four
    # branches has weight g M g^dag = n / 4 (M = I2 / 4), each cold-atom round
    # succeeds with probability g C g^dag = n / 2, and Bob holds c_b g g^dag;
    # the half-odd sectors have none, or the setup would have raised
    # (test_outcome_outside_the_branches_raises_naming_it); the engine's
    # constants are the certified ones: the branch weights' running sums over
    # n are _QUARTERS, and a round hits below 1/2 of n
    eye2, eye4 = np.eye(2), np.eye(4)
    for variant, scale in (("electronic", 1.0), ("coldatom", 0.5)):
        grams = _grams(variant)
        assert grams["branch"].shape == (len(protocol.BRANCHES), 2, 2)
        assert grams["bob"].shape == (len(protocol.BRANCHES), 4, 4)
        for alice, bob, (j, m) in zip(grams["branch"], grams["bob"], protocol.BRANCHES):
            assert np.abs(alice - scale / 4 * eye2).max() <= 1e-12, (variant, j, m)
            assert np.abs(bob - scale / 4 * eye4).max() <= 1e-12, (variant, j, m)
        weights = grams["branch"][:, 0, 0].real
        assert np.abs(np.cumsum(weights)[:3, None] / weights.sum() - protocol._QUARTERS).max() <= 1e-12
    assert protocol._QUARTERS.tolist() == [[0.25], [0.5], [0.75]]
    assert np.abs(_grams("coldatom")["class"] - eye2 / 2).max() <= 1e-12
    table = np.zeros((2, _WIDTH))
    table[:, 0] = np.nextafter(0.5, 0.0), 0.5  # a hit, then a miss and a hit, at n = 1
    assert protocol.coldatom_batch(1.0, _draws_of(table), 0)[1].tolist() == [1, 2]


@pytest.mark.parametrize("variant", ["electronic", "coldatom"])
def test_setup_gram_matrices_match_the_step_by_step_path(variant):
    # for 40 Haar inputs and every branch, g @ branch[b] @ g^dag is the
    # branch's weight in the library's state after Alice's gates, and Bob's
    # map contracted with g g^dag is bob_reduced_spin of that branch's
    # unnormalised state after his corrections; a cold-atom fold is the
    # initial state's integer-class part
    grams = _grams(variant)
    bases = {(j, m): b for j, m, b in spin_sector_bases(TELEPORT_MODES, protocol.ALICE_WIRES)}
    integer = integer_class_projector(TELEPORT_MODES, protocol.ALICE_WIRES)
    rng = np.random.default_rng(53)
    for gi in np.stack(protocol._haar_amplitudes(rng.random((40, 3))), axis=1):
        psi = prepare_initial(SpinAmplitudes(*gi), variant).amps
        state = StateVector(TELEPORT_MODES, integer @ psi if variant == "coldatom" else psi)
        state = apply_gate(hadamard("c"), apply_gate(cnot("c", "a"), state))
        for b, branch in enumerate(protocol.BRANCHES):
            part = bases[branch] @ (bases[branch].conj().T @ state.amps)
            assert abs(gi @ grams["branch"][b] @ gi.conj() - np.vdot(part, part)) <= 1e-12
            corrected = StateVector(TELEPORT_MODES, part)
            for spec in bob_correction(*branch):
                corrected = apply_gate(spec, corrected)
            bob = (np.outer(gi, gi.conj()).ravel() @ grams["bob"][b]).reshape(2, 2)
            assert np.abs(bob - protocol.bob_reduced_spin(corrected)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the setup's certificate of ideal teleportation: a fold that breaks it raises
# at setup, naming the check, before any trial runs on it
# ---------------------------------------------------------------------------

def _electronic_setup_of(rows, monkeypatch):
    """A fresh electronic setup that folds ``rows`` in place of the two initial states."""
    monkeypatch.setattr(protocol, "_inputs", lambda variant: rows)
    return protocol._kernel_setup.__wrapped__("electronic")


_INITIAL = protocol._inputs("electronic")


def test_certificate_refuses_forms_with_coherence_rows(monkeypatch):
    # the second input's state overlaps the first's: each branch weight
    # picks up Re g1 conj(g2), through the off-diagonal entry 1/4 / sqrt(2)
    rows = np.stack([_INITIAL[0], (_INITIAL[0] + _INITIAL[1]) / np.sqrt(2)])
    with pytest.raises(RuntimeError, match=r"^ideal teleportation is not certified: the Gram "
                                           r"matrix of branch \(1\.0, 1\.0\) is off its law "
                                           r"0\.25 I2 by 0\.177$"):
        _electronic_setup_of(rows, monkeypatch)


@pytest.mark.parametrize("branch", range(len(protocol.BRANCHES)))
def test_certificate_refuses_generic_states_in_one_branch(branch, monkeypatch):
    # generic states inside one branch sector: Alice's branch Gram matrices
    # would put every trial in it, but they depend on the coherence of g; the
    # first branch's is off its law: the unit diagonal, or 0 outside it
    x = _one_branch_states(branch)
    gap = "0\\.75" if branch == 0 else "0\\.25"
    with pytest.raises(RuntimeError, match=r"not certified: the Gram matrix of branch "
                                           rf"\(1\.0, 1\.0\) is off its law 0\.25 I2 by {gap}$"):
        _electronic_setup_of(x[:2], monkeypatch)


def test_certificate_refuses_forms_with_unequal_diagonal_rows(monkeypatch):
    # the second input's state at half the amplitude: each branch weight is
    # |g1|^2 / 4 + |g2|^2 / 16
    rows = _INITIAL * np.array([[1.0], [0.5]])
    with pytest.raises(RuntimeError, match=r"not certified: the Gram matrix of branch "
                                           r"\(1\.0, 1\.0\) is off its law 0\.25 I2 by "
                                           r"0\.188$"):
        _electronic_setup_of(rows, monkeypatch)


def test_certificate_refuses_a_constant_off_the_grid(monkeypatch):
    # multiples of I2, but 0.81 / 4 is not the law's 1/4
    with pytest.raises(RuntimeError, match=r"not certified: the Gram matrix of branch "
                                           r"\(1\.0, 1\.0\) is off its law 0\.25 I2 by "
                                           r"0\.0475$"):
        _electronic_setup_of(0.9 * _INITIAL, monkeypatch)


def test_certificate_refuses_branch_sums_that_are_not_quarters(monkeypatch):
    # multiples of I2, but an electronic trial's branches would add up to 2
    with pytest.raises(RuntimeError, match=r"not certified: the Gram matrix of branch "
                                           r"\(1\.0, 1\.0\) is off its law 0\.25 I2 by "
                                           r"0\.25$"):
        _electronic_setup_of(np.sqrt(2) * _INITIAL, monkeypatch)


def test_certificate_refuses_a_class_probability_other_than_one_half(monkeypatch):
    # an integer-class part of twice the weight: a round would hit with
    # probability 1, not the engine's 1/2
    real = protocol.integer_class_projector
    monkeypatch.setattr(protocol, "integer_class_projector",
                        lambda modes, wires: np.sqrt(2) * real(modes, wires))
    with pytest.raises(RuntimeError, match=r"not certified: the class Gram matrix is off its "
                                           r"law 0\.5 I2 by 0\.5$"):
        protocol._kernel_setup.__wrapped__("coldatom")


@pytest.mark.parametrize("branch", range(len(protocol.BRANCHES)))
def test_certificate_refuses_a_wrong_correction_for_bob(branch, monkeypatch):
    # the next branch's gates in this branch leave Bob's spin rotated: his
    # map mixes g1 and g2, and his overlap with g depends on more than its norm
    wrong = list(protocol._CORRECTIONS)
    wrong[branch] = protocol._CORRECTIONS[(branch + 1) % len(wrong)]
    monkeypatch.setattr(protocol, "_CORRECTIONS", tuple(wrong))
    with pytest.raises(RuntimeError, match=rf"not certified: Bob's map in branch "
                                           rf"\({protocol.BRANCHES[branch][0]}, .*\) is off its "
                                           rf"law 0\.25 I4 by 0\.375$"):
        protocol._kernel_setup.__wrapped__("electronic")


def test_certificate_refuses_a_bob_map_off_the_identity(monkeypatch):
    # Alice's Gram matrices as they are, but Bob's down amplitude read with
    # the wrong fermionic sign: he holds g1 |up> - g2 |dn>, and his map is
    # diag(1, -1, -1, 1) / 4, whose trace is 0
    real = protocol._b_reduction_indices
    monkeypatch.setattr(protocol, "_b_reduction_indices",
                        lambda modes: (*real(modes)[:2], -real(modes)[2]))
    with pytest.raises(RuntimeError, match=r"not certified: Bob's map in branch \(1\.0, 1\.0\) "
                                           r"is off its law 0\.25 I4 by 0\.5$"):
        protocol._kernel_setup.__wrapped__("electronic")


def test_certificate_refuses_a_zero_bob_map(monkeypatch):
    # a reduction that reads none of Bob's amplitudes: his map is 0, and so
    # would be his trace, where the engine reads a fidelity of 1
    real = protocol._b_reduction_indices
    monkeypatch.setattr(protocol, "_b_reduction_indices",
                        lambda modes: tuple(x[:0] for x in real(modes)))
    with pytest.raises(RuntimeError, match=r"not certified: Bob's map in branch \(1\.0, 1\.0\) "
                                           r"is off its law 0\.125 I4 by 0\.125$"):
        protocol._kernel_setup.__wrapped__("coldatom")


def _refuses(variant, why):
    with pytest.raises(RuntimeError, match=f"^ideal teleportation is not certified: {why}$"):
        protocol._kernel_setup.__wrapped__(variant)


def test_certificate_reads_the_engines_constants(monkeypatch):
    # the certificate holds the protocol to the constants the engine runs: a
    # last running sum of 0.8, a hit probability of 0.6 or another doublon law
    # is refused by each variant that reads it
    with monkeypatch.context() as m:
        m.setattr(protocol, "_QUARTERS", protocol._read_only(np.array([[0.25], [0.5], [0.8]])))
        for variant, law, gap in (("electronic", r"0\.3", r"0\.05"),
                                  ("coldatom", r"0\.15", r"0\.025")):
            _refuses(variant, rf"the Gram matrix of branch \(1\.0, -1\.0\) is off its law {law}\d* "
                              rf"I2 by {gap}")
    with monkeypatch.context() as m:
        m.setattr(protocol, "_CLASS_P", 0.6)
        _refuses("coldatom", r"the class Gram matrix is off its law 0\.6 I2 by 0\.1")
        protocol._kernel_setup.__wrapped__("electronic")  # its hit constant is 1
    monkeypatch.setattr(protocol, "_DOUBLON_LAW", protocol._read_only(np.diag([0.5, 0.0])))
    _refuses("coldatom", r"the doublon Gram matrix G is off its law \[\[0\.5, 0\.0\], "
                         r"\[0\.0, 0\.0\]\] by 0\.25")


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
  "min_fidelity": 0.9999999999999999,
  "mean_fidelity": 0.9999999999999999
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
  "min_fidelity": 1.0,
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
  "min_fidelity": 0.9999999999999999,
  "mean_fidelity": 0.9999999999999999
}
""",
}


def _report_json(variant, g_kind, n, seed):
    """The report JSON of a pinned run: ``variant`` may name a mixed resource
    after a slash, ``mixed/diag`` for diag(1/4, 1/4, 1/2) over (a doublon,
    b doublon, singlet); plain ``mixed`` runs on the a-b singlet."""
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    variant, _, resource = variant.partition("/")
    resource = _span_resource(np.diag([0.25, 0.25, 0.5])) if resource == "diag" else None
    return run_trials(g, variant, n, seed=seed, resource=resource).to_json()


@pytest.mark.parametrize("variant, g_kind, seed", list(_GOLDEN))
def test_golden_report_bytes(variant, g_kind, seed):
    g = SpinAmplitudes.normalized(0.3 + 0.4j, 0.5) if g_kind == "fixed" else None
    report = run_trials(g, variant, 300, seed=seed)
    assert report.to_json() == _GOLDEN[variant, g_kind, seed]
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


# SHA-256 of the report JSON over every variant, mixed on two resources,
# fixed and Haar inputs, one trial, part of a chunk and past a chunk, a
# small and the largest seed.
_DIGESTS = {
    ("electronic", "fixed", 1, 5): "ffc5de87e36277046e7f78f925c4b91acf937b10da5e5fb19e04932cd59b3ade",
    ("electronic", "fixed", 1, 2**64 - 1): "63465b74b15a342dd506f87d61228eb269ed9ab103a730cd028511130652519b",
    ("electronic", "fixed", 50, 5): "8fd2cfc409efaa3c9355a1b7f80d96fa848c23df0f83cf204e700f10c58d1b7b",
    ("electronic", "fixed", 50, 2**64 - 1): "d4ae1177d30ef345f4ff46af246794da300ce3a222764be8233fac2254aa2ab3",
    ("electronic", "fixed", 1025, 5): "9886ab6d5e19518f7c5bb57e3d8df8bc01f54a53b5567a3c545980790cab5b62",
    ("electronic", "fixed", 1025, 2**64 - 1): "7e1f702c600f5e2720b5f4456072e97f7973c83cae1c26c7ddb3516796f3b3a7",
    ("electronic", "haar", 1, 5): "a4d2dd15922aa0214379b911c95eb163978de8ee8bf3309c3046f1053390a64c",
    ("electronic", "haar", 1, 2**64 - 1): "4d305905a50f4106fce809a5f6015f72a19b59636a7f9503e41a515cb5febbf8",
    ("electronic", "haar", 50, 5): "88e5db1ad2c5f44b3309114a5730237c7ebcd9191e67d851d1a9911473a400ea",
    ("electronic", "haar", 50, 2**64 - 1): "7eaae9bd14f413b67b31e077ae06ca5072abc731622653a0dc42665077d2186a",
    ("electronic", "haar", 1025, 5): "e57e59905cdeee4d750eaca9f0e7505afb7e64665e929e63cde48a14c30e7053",
    ("electronic", "haar", 1025, 2**64 - 1): "4a1440647636f3946e5ee4d571839bc7ff45b45289a1bad5bd7f8bc82096bba7",
    ("coldatom", "fixed", 1, 5): "62c9b280df5d314665e210d8b0929626c2336122ee520cf6be1c2eb136ee7eca",
    ("coldatom", "fixed", 1, 2**64 - 1): "dcf0adb5cbb412729ad6be2a13247c3129c3b2ae9b21a0d74cf278b892482612",
    ("coldatom", "fixed", 50, 5): "28a95033ffaf01c4a658d08d23bf4cc2d49f5809b836b0369cf60a31d8135a78",
    ("coldatom", "fixed", 50, 2**64 - 1): "9d31836e1e98d8be879e52c0e582ddb8566744d0f00ef234af0f63d815208e7b",
    ("coldatom", "fixed", 1025, 5): "c478bef95954b33f2717e3f845c64985b8fe74d5b7681408fc0c66ea3842a527",
    ("coldatom", "fixed", 1025, 2**64 - 1): "06b253687a2e71321011887174c976458965a7b28d1f89b992b9d207c1d6562d",
    ("coldatom", "haar", 1, 5): "662ea3a54cc324beca77402d28847ec2b3a5acf43938de6c46968d3b20411766",
    ("coldatom", "haar", 1, 2**64 - 1): "690a111890cb61e6915f0b253b588fd6f3e1313a327a5520d5e2692143f95c15",
    ("coldatom", "haar", 50, 5): "575d5592c0d9fa5fc807cf6a64925c827ef8bfcf569276fa5b1a20bb1fcbdd9a",
    ("coldatom", "haar", 50, 2**64 - 1): "4e57796f11df6f8ff775827c71e3522a119d62c9e21d00eab1d46e7956f2f73a",
    ("coldatom", "haar", 1025, 5): "03d130e8f4fa814ee0ea6f853e416da12e49c1891f69dbf001714fb554a446d8",
    ("coldatom", "haar", 1025, 2**64 - 1): "36294955a818756458cb7417261f38ca5d80eace5bae0f32f2d3e13238785379",
    ("mixed", "fixed", 1, 5): "1adad2157dbff9c7b5947403f4c9a1e54403d94d26d88b7a421c9c849b9bca8a",
    ("mixed", "fixed", 1, 2**64 - 1): "7af6397f8c881de3581eae15046ded7b6ae79d651a76e32a1e2c6299fe588492",
    ("mixed", "fixed", 50, 5): "9a18b36a2434366cdad424525b44ad963a304ff2e986937e3c487ece5973aa51",
    ("mixed", "fixed", 50, 2**64 - 1): "75b4bfccffada2adc7a615035fa6bdf8fff8f615e0b27f3d284de5c533e1d063",
    ("mixed", "fixed", 1025, 5): "c399840603520d5c059ab710c0c740345195bceb830894de66cb0e4e8a1b0ad8",
    ("mixed", "fixed", 1025, 2**64 - 1): "781c449edce9c165809f976c921ad7c592ee3f3a94c50845d772ab21aafd9f01",
    ("mixed", "haar", 1, 5): "1884f309716b233135fa58e2a2e76be692ae029094c04b6952ba5d802c2a21b4",
    ("mixed", "haar", 1, 2**64 - 1): "52393dedf8fc36d35597688314d4926747d6fe14097d07cc869f9238c84149ed",
    ("mixed", "haar", 50, 5): "21bdbb4f7bed4b038099cabab31296ab3d18420e1cabc018b8517884e21aec03",
    ("mixed", "haar", 50, 2**64 - 1): "3ba0ff033d94befb7f532b87bc876685e22aeae89d22a512538958cc4a6db82f",
    ("mixed", "haar", 1025, 5): "e59954175b475c9c07da4542f243d016fb4ad5e0e74e5fcd34626780f111fb00",
    ("mixed", "haar", 1025, 2**64 - 1): "92f44485badd4eb9227274650fbc9027565d779f888117b1680129bb09a08fab",
    ("mixed/diag", "fixed", 1, 5): "e2e4ce805617e691ee89dd5687cba313e905ec4b866f0bbe7514825c13a3fce6",
    ("mixed/diag", "fixed", 1, 2**64 - 1): "7af6397f8c881de3581eae15046ded7b6ae79d651a76e32a1e2c6299fe588492",
    ("mixed/diag", "fixed", 50, 5): "75fac7169f23c9aa80222bc4ecbad51a9fe63ade1e6966608f7c1759174a09f0",
    ("mixed/diag", "fixed", 50, 2**64 - 1): "02cb543355361ecfb1ae1d6e2fb594d319c990fff3c843ade5654bf82af8b14a",
    ("mixed/diag", "fixed", 1025, 5): "80dfb151095e71bf653f8d2d6745716d1d8804ce37679affc26bf3df38d7f6b2",
    ("mixed/diag", "fixed", 1025, 2**64 - 1): "ec13935522ae5db7c7d91a2c53d906e11f1b920434f10d8507d7f8628b52cf96",
    ("mixed/diag", "haar", 1, 5): "1884f309716b233135fa58e2a2e76be692ae029094c04b6952ba5d802c2a21b4",
    ("mixed/diag", "haar", 1, 2**64 - 1): "f0964058700d7d395539fed5e9bd1900e9ff604b0869f002b0b25bfe31fdaeb1",
    ("mixed/diag", "haar", 50, 5): "209efa4e598febdf97f14ebbe80455d33e4008d72cabb5af674743d5a07a9a8d",
    ("mixed/diag", "haar", 50, 2**64 - 1): "1d9ca1e3e2adeabdb1841cab9be5a811c65c4492ee0b260cd8979f5eb608d668",
    ("mixed/diag", "haar", 1025, 5): "aab4e2ef8d608bb842643eb1a3adfa3bde179ca1cdfb6fb2534dad199124ea04",
    ("mixed/diag", "haar", 1025, 2**64 - 1): "556cfaf674ca7bdd4904ea4a38de542c83d84edebff6838c834917dee7dc77b5",
}


@pytest.mark.parametrize("variant, g_kind, n, seed", list(_DIGESTS))
def test_report_digest(variant, g_kind, n, seed):
    text = _report_json(variant, g_kind, n, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == _DIGESTS[variant, g_kind, n, seed]
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


#: numpy's dispatch targets above its x86-64 baseline: disabled, numpy runs its baseline loops.
_SIMD_FEATURES = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

#: The core type OpenBLAS reports, or None where numpy's BLAS is not scipy-openblas.
_OPENBLAS_CORE = """
import ctypes, pathlib
import numpy as np
libs = sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
corename = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_corename64_", None) if libs else None
if corename is not None:
    corename.argtypes, corename.restype = [], ctypes.c_char_p
core = corename().decode() if corename is not None else None
"""


def _child_reports(tmp_path, env, check=""):
    """The pinned reports' digests and golden texts, and OpenBLAS's core type,
    from a child process whose environment adds ``env``, after ``check``."""
    script = tmp_path / "reports.py"
    script.write_text(f"""
import hashlib, json, sys
{check}
{_OPENBLAS_CORE}
sys.path.insert(0, {os.path.dirname(__file__)!r})
from test_backends import _DIGESTS, _GOLDEN, _report_json
print(json.dumps({{
    "core": core,
    "digests": [hashlib.sha256(_report_json(*key).encode()).hexdigest() for key in _DIGESTS],
    "golden": [_report_json(variant, g_kind, 300, seed) for variant, g_kind, seed in _GOLDEN],
}}))
""")
    src = os.path.dirname(os.path.dirname(edgeteleport.__file__))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert dict(zip(_DIGESTS, got["digests"])) == _DIGESTS
    assert dict(zip(_GOLDEN, got["golden"])) == _GOLDEN
    return got["core"]


def test_report_digests_do_not_depend_on_numpys_simd_level(tmp_path):
    # the engine's arithmetic is real: no numpy complex loop, whose rounding
    # follows the SIMD level, enters a report
    from numpy._core._multiarray_umath import __cpu_features__

    if not all(__cpu_features__.get(f) for f in _SIMD_FEATURES.split()):
        pytest.skip(f"numpy finds not all of {_SIMD_FEATURES} on this CPU")
    _child_reports(tmp_path, {"NPY_DISABLE_CPU_FEATURES": _SIMD_FEATURES}, check=f"""
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[f] for f in {_SIMD_FEATURES.split()!r})""")


@pytest.mark.parametrize("core", ["Sandybridge", "Prescott"])
def test_report_bytes_do_not_depend_on_the_blas_kernel(core, tmp_path):
    # the engine calls no BLAS routine: FMA and non-FMA kernels, which sum a
    # product's terms in other orders, give the same reports
    native = {}
    exec(_OPENBLAS_CORE, native)
    picked = _child_reports(tmp_path, {"OPENBLAS_CORETYPE": core})
    # the setting took: the child left the kernel this process picked
    assert picked is None or picked != native["core"] or picked == core, (picked, core)


# ---------------------------------------------------------------------------
# mixed resources: the cold-atom engine, with round 1 hitting at the
# resource's singlet weight
# ---------------------------------------------------------------------------

def _span_resource(r3):
    """The a-b density matrix with the 3x3 matrix ``r3`` on (a doublon, b doublon, singlet)."""
    span = protocol.neutral_spin_zero_basis()
    return DensityMatrix(AB_MODES, span @ np.asarray(r3) @ span.conj().T)


def _random_span_matrix(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r = z @ z.conj().T
    return r / np.trace(r).real


_RNG = np.random.default_rng(2024)
_NO_A = np.zeros((3, 3), dtype=complex)
_NO_A[1:, 1:] = _random_span_matrix(_RNG, 2)  # b doublon and singlet, full rank on them
_MIXED = {
    "singlet": None,
    **{f"random{k}": _span_resource(_random_span_matrix(_RNG, 3)) for k in range(5)},
    "no-a-doublon": _span_resource(_NO_A),
    "singlet-near-floor": _span_resource(np.diag([0.5, 0.5 - 2e-12, 2e-12])),
}

#: Trials the oracle checks of a 1025-trial run: the start, and both sides
#: of the chunk boundary.
_MIXED_CHECKED = [*range(30), *range(protocol._CHUNK - 20, protocol._CHUNK + 1)]


def _mixed_oracle(g, resource, seed, trials):
    if resource is None:
        resource = _span_resource(np.diag([0.0, 0.0, 1.0]))
    results = []
    for i in trials:
        rng = trial_rng(seed, i)
        res = run_teleport_mixed(g if g is not None else SpinAmplitudes.haar(rng), resource, rng)
        results.append((protocol.BRANCHES.index(res.branch), res.rounds, res.fidelity))
    return map(np.array, zip(*results))


def _mixed_engine(g, resource, n, seed):
    chunks = _batched(g, "mixed", n, seed, resource)
    return _per_trial(chunks, _fidelity(_run_norm(g)))


@pytest.mark.parametrize("resource", list(_MIXED.values()), ids=list(_MIXED))
@pytest.mark.parametrize("g", [SpinAmplitudes.normalized(0.3 + 0.4j, 0.5), None],
                         ids=["fixed", "haar"])
@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_mixed_engine_matches_oracle(resource, g, seed):
    branches, rounds, fids = _mixed_engine(g, resource, protocol._CHUNK + 1, seed)
    o_branches, o_rounds, o_fids = _mixed_oracle(g, resource, seed, _MIXED_CHECKED)
    np.testing.assert_array_equal(branches[_MIXED_CHECKED], o_branches)
    np.testing.assert_array_equal(rounds[_MIXED_CHECKED], o_rounds)
    assert np.abs(fids[_MIXED_CHECKED] - o_fids).max() <= 1e-15
    # round 1 hits with the singlet weight
    assert (rounds == 1).all() if resource is None else 1 < rounds.max() <= 64


@pytest.mark.parametrize("variant", ["electronic", "coldatom", "mixed"])
def test_one_haar_trial_matches_the_oracle(variant):
    # one Haar trial's chunk is one row for one trial: the shape of a fixed
    # input's broadcast row, taken here as a row per trial
    rounds = []
    for seed in [*range(12), 2**64 - 1]:
        if variant == "mixed":
            resource = _MIXED["random0"]
            branches, r, fids = _mixed_engine(None, resource, 1, seed)
            o_branches, o_rounds, o_fids = _mixed_oracle(None, resource, seed, [0])
            np.testing.assert_array_equal(branches, o_branches)
            np.testing.assert_array_equal(r, o_rounds)
            assert np.abs(fids - o_fids).max() <= 1e-15
        else:
            r = _assert_engine_matches_oracle(None, variant, 1, seed)
        rounds += r.tolist()
    # some of the cold-atom and mixed trials restart
    assert (max(rounds) > 1) == (variant != "electronic")


def test_resource_certificate_covers_the_doublon_sector_and_refuses_misses_outside_it(
        monkeypatch):
    # a mixed resource's misses are folds of the span's two doublons, which
    # reach one a-b sector (charge 2, J = 0, times c's two spin states); the
    # setup certifies the doublon law there, and a fold outside it, or a miss
    # off the folds, is refused, not passed unchecked
    doublons = protocol.neutral_spin_zero_basis()[:, :2]
    folds = np.kron(doublons.T[:, None], np.eye(4)[1:3])  # doublon k times c_up and c_dn
    reached = [basis.shape[1] for basis, _ in sector_ground_spaces(protocol._relax_hamiltonian())
               if np.abs(folds @ basis.conj()).max() > 1e-12]
    assert reached == [12]
    inputs = protocol._inputs("coldatom")
    miss = inputs - inputs @ integer_class_projector(TELEPORT_MODES, protocol.ALICE_WIRES).T
    np.testing.assert_array_equal(protocol._DOUBLON_LAW, np.full((2, 2), 0.25))
    monkeypatch.setattr(protocol, "_LAW_TOL", 1e-15)  # the computed law is within 1e-15 of it
    assert protocol._certify_relaxation(inputs, miss, doublons) is None
    outside = np.column_stack([doublons, vacuum_state(AB_MODES).amps])
    for args in [(inputs, miss, outside), (inputs, inputs, doublons)]:
        with pytest.raises(RuntimeError, match="reach a sector outside the certified ones"):
            protocol._certify_relaxation(*args)


def _orthogonal_doublons(p_singlet):
    """``p_singlet`` on the singlet, the rest on ``(da - db) / sqrt(2)``,
    which is orthogonal to the hopping ground state's doublon part."""
    d = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    return _span_resource((1 - p_singlet) * np.outer(d, d) + np.diag([0.0, 0.0, p_singlet]))


def test_mixed_miss_orthogonal_to_the_ground_space_raises_as_in_the_oracle():
    resource = _orthogonal_doublons(0.5)
    with pytest.raises(RuntimeError, match="orthogonal to its sector ground space"):
        run_trials(None, "mixed", 20, seed=3, resource=resource)
    # the oracle's relaxation raises at the first of these trials to miss round 1
    with pytest.raises(RuntimeError, match="orthogonal to its sector ground space"):
        list(_mixed_oracle(None, resource, 3, range(20)))
    # with no miss there is nothing to relax: both complete
    resource = _orthogonal_doublons(1 - 1e-13)
    branches, rounds, fids = _mixed_engine(None, resource, protocol._CHUNK + 1, 3)
    assert (rounds == 1).all() and fids.min() >= 1 - 1e-12
    o_branches, o_rounds, _ = _mixed_oracle(None, resource, 3, _MIXED_CHECKED)
    np.testing.assert_array_equal(branches[_MIXED_CHECKED], o_branches)
    assert (o_rounds == 1).all()


def test_a_late_first_miss_raises_there_as_in_the_oracle():
    # nearly all singlet: the first round-1 miss onto the orthogonal doublons
    # falls in the second chunk, and only a run that reaches it raises
    resource, seed = _orthogonal_doublons(0.999), 26
    message = "orthogonal to its sector ground space"
    first = next(i for i in range(2**12) if trial_rng(seed, i).random(4)[3] >= 0.999)
    assert first > protocol._CHUNK
    report = run_trials(None, "mixed", first, seed=seed, resource=resource)
    assert report.rounds_histogram == {1: first}
    with pytest.raises(RuntimeError, match=message):
        run_trials(None, "mixed", first + 1, seed=seed, resource=resource)
    list(_mixed_oracle(None, resource, seed, [first - 1]))
    with pytest.raises(RuntimeError, match=message):
        list(_mixed_oracle(None, resource, seed, [first]))


def _gram(x):
    """``x x^dag`` of the complex 2x2 (or 2-vector) with real parts ``x[0]``, imaginary ``x[1]``."""
    z = np.asarray(x[0]) + 1j * np.asarray(x[1])
    return z @ z.conj().T if z.ndim == 2 else np.outer(z, z.conj())


def _a_minus_b(eps):
    """The a-b doublon, orthogonal to the doublon law, with ``eps`` added to its b amplitude."""
    return np.outer([1.0, eps - 1.0], [1.0, eps - 1.0])


# small integer entries: a block is exactly orthogonal to G or clear of the
# threshold kappa <= 1e-20, which lies below the rounding of both kappas
_INTS = st.integers(-3, 3)
_DOUBLON_BLOCKS = st.one_of(
    st.lists(st.lists(st.lists(_INTS, min_size=2, max_size=2), min_size=2, max_size=2),
             min_size=2, max_size=2).map(_gram),  # random
    st.lists(st.lists(_INTS, min_size=2, max_size=2), min_size=2, max_size=2).map(_gram),  # rank 1
    st.sampled_from([-1e-6, 0.0, 1e-6]).map(_a_minus_b),
).filter(lambda block: np.trace(block).real > 0)


@settings(max_examples=60, deadline=None)
@example(block=_a_minus_b(0.0), u=[0.5, 0.25, 0.75])  # the oracle raises
@example(block=_a_minus_b(1e-6), u=[0.5, 0.25, 0.75])  # and here does not
@given(block=_DOUBLON_BLOCKS, u=st.lists(st.floats(0, 1, exclude_max=True), min_size=3, max_size=3))
def test_mixed_misses_relax_by_the_doublon_law(block, u):
    # the oracle relaxes a round-1 miss with ground/total weight
    # kappa = tr(G rho) / tr rho and back to the cold-atom state; the engine
    # reads only kappa, so it raises exactly where the oracle's relaxation does
    g = SpinAmplitudes(*protocol._haar_amplitudes(np.array([u]))[:, 0])
    r3 = np.zeros((3, 3), dtype=complex)
    r3[:2, :2], r3[2, 2] = block / (2 * np.trace(block).real), 0.5
    resource = _span_resource(r3)
    chi = np.array([0.0, g.g1, g.g2, 0.0])
    rho = DensityMatrix(TELEPORT_MODES, np.kron(resource.mat, np.outer(chi, chi.conj())))
    miss = measure_spin_class(rho, protocol.ALICE_WIRES, _Uniforms([1.0]))[1]
    h = protocol._relax_hamiltonian()
    w, wy = np.sum([[np.trace(x.conj().T @ miss.mat @ x).real for x in pair]
                    for pair in sector_ground_spaces(h)], axis=0)
    law = protocol._DOUBLON_LAW
    kappa = np.vdot(law, r3[:2, :2]).real / np.trace(r3[:2, :2]).real
    assert abs(wy / w - kappa) <= 1e-15
    message = "orthogonal to its sector ground space"
    try:
        relaxed = relax_to_ground(miss, h)
    except RuntimeError as e:
        assert message in str(e)
        with pytest.raises(RuntimeError, match=message):
            run_teleport_mixed(g, resource, _Uniforms([1.0, 0.0, 0.5]))
        with pytest.raises(RuntimeError, match=message):
            run_trials(g, "mixed", 20, seed=3, resource=resource)
        return
    initial = DensityMatrix.from_state(prepare_initial(g, "coldatom"))
    # relaxing divides the ground part, rounded to ~1e-16, by its weight kappa:
    # an a-b doublon 1e-6 off orthogonal (kappa ~ 1e-13) keeps ~1e-16 / kappa
    assert np.abs(relaxed.mat - initial.mat).max() <= max(1e-12, 1e-15 / kappa)
    assert run_teleport_mixed(g, resource, _Uniforms([1.0, 0.0, 0.5])).rounds == 2
    assert max(run_trials(g, "mixed", 20, seed=3, resource=resource).rounds_histogram) > 1


def test_mixed_restart_cap_raises_exactly_where_the_oracle_needs_more_rounds(monkeypatch):
    resource = _MIXED["random0"]
    _, o_rounds, _ = _mixed_oracle(None, resource, 4, range(60))
    longest = int(o_rounds.max())
    assert longest >= 2
    monkeypatch.setattr(protocol, "MAX_ROUNDS", longest)
    rep = run_trials(None, "mixed", 60, seed=4, resource=resource)
    assert max(rep.rounds_histogram) == longest
    for cap in (longest - 1, 1):
        monkeypatch.setattr(protocol, "MAX_ROUNDS", cap)
        message = rf"^no integer-spin outcome in {cap} rounds; statistically unreachable"
        with pytest.raises(RuntimeError, match=message):
            run_trials(None, "mixed", 60, seed=4, resource=resource)
    with pytest.raises(RuntimeError, match=r"^no integer-spin outcome in 1 rounds"):
        list(_mixed_oracle(None, resource, 4, range(60)))


def test_mixed_round_one_never_misses_into_a_weightless_class(monkeypatch):
    # the singlet's doublon weight is 0, below PROB_FLOOR: a class draw at or
    # above the integer weight, here 1 - 2**-53 >= F0 + F1 = 1 - 4e-13, hits
    g = SpinAmplitudes(np.sqrt(1 - 4e-13), 0.0)
    calls, real = [], protocol.coldatom_batch
    monkeypatch.setattr(protocol, "coldatom_batch", lambda *args: calls.append(args) or real(*args))
    assert run_trials(g, "mixed", 1).min_fidelity >= 1 - 1e-12
    norm, p1 = calls[0][0], calls[0][3]  # the singlet's, as run_trials makes them
    assert norm == _norm(g) and p1 == 2.0
    branch_u = np.random.default_rng(9).random(40)
    table = np.column_stack([np.full(40, 1 - 2.0**-53), branch_u, np.zeros((40, _WIDTH - 2))])
    branches, rounds = real(norm, _draws_of(table), 0, p1)
    assert (rounds == 1).all()
    singlet = _span_resource(np.diag([0.0, 0.0, 1.0]))
    for i, u in enumerate(branch_u):
        res = run_teleport_mixed(g, singlet, _Uniforms([1 - 2.0**-53, u]))
        assert (protocol.BRANCHES.index(res.branch), res.rounds) == (branches[i], 1)


@pytest.mark.parametrize("resource, message", [
    (DensityMatrix.from_state(vacuum_state(AB_MODES)), "outside the neutral spin-zero span"),
    (_span_resource(np.diag([0.5, 0.5, 0.0])), "zero singlet weight"),
    (DensityMatrix(TELEPORT_MODES, np.eye(64) / 64), "on the a-b mode set"),
    (_span_resource(np.diag([0.5, 0.5, 0.5])), "trace is not 1"),
])
def test_mixed_engine_checks_the_resource_as_the_oracle_does(resource, message):
    with pytest.raises(ValueError, match=message):
        run_trials(None, "mixed", 3, resource=resource)
    with pytest.raises(ValueError, match=message):
        run_teleport_mixed(SpinAmplitudes(1.0, 0.0), resource, trial_rng(0, 0))
