"""The vectorised per-trial streams must be numpy's Philox4x64-10, draw for draw.

``trial_rng(seed, t)`` (numpy's ``Philox`` keyed by ``uint64[seed, t]``) is the
oracle; the batch path evaluates the same stream as ``uint64`` array
arithmetic, many trials at once.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeteleport.protocol as protocol
from edgeteleport.protocol import SpinAmplitudes, run_trials, trial_rng

_SEEDS = st.integers(0, 2**64 - 1)
# trial words span the whole key word, so every round key wraps somewhere
_TRIALS = st.integers(0, 2**64 - 1)
_DRAWS = st.integers(0, 80)


@settings(max_examples=80, deadline=None)
@given(_SEEDS, st.lists(st.tuples(_TRIALS, _DRAWS), min_size=1, max_size=12))
@example(2**64 - 1, [(2**64 - 1, 0), (2**64 - 1, 79), (0, 5)])
def test_vectorised_philox_matches_numpy(seed, pairs):
    trials = np.array([t for t, _ in pairs], dtype=np.uint64)
    draws = np.array([d for _, d in pairs])
    got = protocol._stream_uniforms(seed, trials, draws)
    expected = [trial_rng(seed, t).random(d + 1)[d] for t, d in pairs]
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=30, deadline=None)
@given(_SEEDS, st.lists(_TRIALS, min_size=1, max_size=6), st.integers(1, 21))
def test_stream_prefix_matches_numpy(seed, trials, n_blocks):
    got = protocol._stream_prefix(seed, np.array(trials, dtype=np.uint64), n_blocks)
    expected = [trial_rng(seed, t).random(4 * n_blocks) for t in trials]
    np.testing.assert_array_equal(got, expected)


def test_stream_prefix_of_a_full_chunk_matches_numpy():
    # one prefix call over more than a chunk, up to the last trial word
    n, n_blocks = protocol._CHUNK + 1, protocol._PREDRAWN_BLOCKS
    trials = np.arange(2**64 - n, 2**64, dtype=np.uint64)
    got = protocol._stream_prefix(2**64 - 2, trials, n_blocks)
    expected = [trial_rng(2**64 - 2, int(t)).random(4 * n_blocks) for t in trials]
    np.testing.assert_array_equal(got, expected)


def test_nearby_seeds_above_2_53_get_distinct_streams():
    # a key given as a list goes through float: 2**63 + 5 would become 2**63
    a, b = 2**63, 2**63 + 5
    assert not np.array_equal(trial_rng(a, 0).random(4), trial_rng(b, 0).random(4))
    trials = np.arange(8, dtype=np.uint64)
    assert not np.any(protocol._stream_prefix(a, trials, 1) == protocol._stream_prefix(b, trials, 1))
    ra, rb = run_trials(None, "electronic", 40, seed=a), run_trials(None, "electronic", 40, seed=b)
    assert ra.seed == a and rb.seed == b
    assert ra.mean_fidelity != rb.mean_fidelity or ra.branch_counts != rb.branch_counts


def test_haar_moments():
    n = 200_000
    u = protocol._stream_prefix(3, np.arange(n, dtype=np.uint64), 1)
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
    u = protocol._stream_prefix(17, np.arange(n, dtype=np.uint64), 1)
    g1s, g2s = protocol._haar_amplitudes(u[:, :3])
    for t in (0, 1, 7, 8, 63, 511, n - 1):
        g = SpinAmplitudes.haar(trial_rng(17, t))
        assert (g.g1, g.g2) == (g1s[t], g2s[t])
