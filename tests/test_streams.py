"""The per-trial streams must be numpy's Philox4x64-10, block for block.

Block ``k`` of trial ``i`` under run seed ``s`` is the first block numpy's
``Philox(key=uint64[s, 0], counter=i + k * 2**64)`` returns, read here with
``random_raw`` and turned into doubles as ``(w >> 11) * 2**-53``: that is the
oracle.  The engine draws a block row of a whole chunk with one generator
call, and ``trial_rng`` reads one trial's blocks in order.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeteleport.protocol as protocol
from edgeteleport.protocol import SpinAmplitudes, run_trials, trial_rng

_SEEDS = st.integers(0, 2**64 - 1)
# at trial 2**64 - 1 the block counter i + 1 + k * 2**64 wraps into word 1
_TRIALS = st.integers(0, 2**64 - 1)


def _block(seed, trial, k):
    """The oracle: block ``k`` of trial ``trial`` as four doubles."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=trial + k * 2**64)
    return (bits.random_raw(4) >> np.uint64(11)) * 2.0**-53


def _oracle_rows(seed, trials, n_blocks):
    return np.array([np.concatenate([_block(seed, t, k) for k in range(n_blocks)])
                     for t in trials])


@settings(max_examples=60, deadline=None)
@given(_SEEDS, _TRIALS, st.integers(1, 6), st.integers(1, 21))
@example(2**64 - 1, 2**64 - 1, 1, 21)
@example(0, 2**64 - 4, 4, 3)  # a chunk across the wrap of counter word 0
def test_vectorised_philox_matches_numpy(seed, start, n, n_blocks):
    start = min(start, 2**64 - n)
    draws = protocol._Draws(seed, start, n)
    got = draws.upto(4 * n_blocks)
    assert got.shape == (n, 4 * n_blocks)  # rows are drawn only as read
    np.testing.assert_array_equal(got, _oracle_rows(seed, range(start, start + n), n_blocks))


@settings(max_examples=40, deadline=None)
@given(_SEEDS, _TRIALS, st.integers(0, 5),
       st.lists(st.sampled_from([None, 1, 2, 3, (1, 3), 7]), min_size=1, max_size=30))
@example(2**64 - 1, 2**64 - 1, 0, [None] * 81)
def test_stream_prefix_matches_numpy(seed, trial, offset, sizes):
    # trial_rng's draw j is word j % 4 of the engine's block j // 4, and a
    # trial's draws do not depend on where its chunk starts
    offset = min(offset, trial)
    stream, parts = trial_rng(seed, trial), []
    for size in sizes:
        x = stream.random(size)
        assert type(x) is float if size is None else x.shape == np.zeros(size).shape
        parts.append(np.ravel(x))
    got = np.concatenate(parts)
    n_blocks = len(got) // 4 + 1
    engine = protocol._Draws(seed, trial - offset, offset + 1).upto(4 * n_blocks)[offset]
    np.testing.assert_array_equal(got, engine[:len(got)])
    np.testing.assert_array_equal(got, _oracle_rows(seed, [trial], n_blocks)[0, :len(got)])


def test_stream_prefix_of_a_full_chunk_matches_numpy():
    # block rows drawn one by one over more than a chunk, up to the last trial
    n, n_blocks = protocol._CHUNK + 1, 4
    start = 2**64 - n
    draws = protocol._Draws(2**64 - 2, start, n)
    for k in range(1, n_blocks + 1):
        got = draws.upto(4 * k)
    np.testing.assert_array_equal(got, _oracle_rows(2**64 - 2, range(start, start + n), n_blocks))


def test_nearby_seeds_above_2_53_get_distinct_streams():
    # a key given as a list goes through float: 2**63 + 5 would become 2**63
    a, b = 2**63, 2**63 + 5
    assert not np.array_equal(trial_rng(a, 0).random(4), trial_rng(b, 0).random(4))
    assert not np.any(protocol._Draws(a, 0, 8).u == protocol._Draws(b, 0, 8).u)
    ra, rb = run_trials(None, "electronic", 40, seed=a), run_trials(None, "electronic", 40, seed=b)
    assert ra.seed == a and rb.seed == b
    assert ra.mean_fidelity != rb.mean_fidelity or ra.branch_counts != rb.branch_counts


def test_haar_moments():
    n = 200_000
    u = protocol._Draws(3, 0, n).u
    g1, g2 = protocol._haar_amplitudes(u[:, :3])
    p = np.abs(g1) ** 2
    # |g1|^2 of a Haar-random qubit is uniform: mean 1/2 (var 1/12), E p^2 = 1/3 (var 4/45)
    assert abs(p.mean() - 1 / 2) <= 5 * np.sqrt(1 / 12 / n)
    assert abs((p**2).mean() - 1 / 3) <= 5 * np.sqrt(4 / 45 / n)
    # phases are uniform too: E g = 0, with E|g|^2 = 1/2 per trial
    for g in (g1, g2):
        assert abs(g.mean()) <= 5 * np.sqrt(1 / 2 / n)
    assert np.abs(p + np.abs(g2) ** 2 - 1.0).max() <= 1e-12


def test_haar_scalar_and_batch_amplitudes_are_bit_identical():
    n = protocol._CHUNK + 5
    u = protocol._Draws(17, 0, n).u
    g1s, g2s = protocol._haar_amplitudes(u[:, :3])
    for t in (0, 1, 7, 8, 63, 511, n - 1):
        g = SpinAmplitudes.haar(trial_rng(17, t))
        assert (g.g1, g.g2) == (g1s[t], g2s[t])


def test_streams_read_alternately_match_streams_read_in_turn():
    # every block row resets the thread's one Philox, so streams alive side
    # by side do not disturb each other, within a block row or across one
    seed, trials, sizes = 2**64 - 3, (5, 2**64 - 1), [1, 3, 2, 4, 1, 5, 3]
    whole = [trial_rng(seed, t).random(sum(sizes)) for t in trials]
    streams, parts = [trial_rng(seed, t) for t in trials], [[], []]
    for size in sizes:
        for stream, part in zip(streams, parts):
            part.append(stream.random(size))
    for got, want, t in zip(parts, whole, trials):
        np.testing.assert_array_equal(np.concatenate(got), want)
        n_blocks = len(want) // 4 + 1
        np.testing.assert_array_equal(want, _oracle_rows(seed, [t], n_blocks)[0, :len(want)])
