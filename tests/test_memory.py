"""Memory stays bounded: one engine chunk has a small peak, and a run's peak
does not grow with its trial count, because every variant runs on the
engine and folds its trials into the report one chunk at a time.

Peaks are ``tracemalloc``'s, which counts numpy's array buffers too.
"""

import tracemalloc

import numpy as np
import pytest

import edgeteleport._kernels as kernels
import edgeteleport.protocol as protocol
from edgeteleport.fock import AB_MODES, DensityMatrix
from edgeteleport.protocol import run_trials


def _peak(call):
    """The ``tracemalloc`` peak of ``call()`` in bytes, setup caches built first."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_haar_chunk_peaks_under_half_a_mebibyte():
    # a Haar chunk checks its draws and runs the engine at the squared norm 1
    setup = protocol._kernel_setup("electronic")
    draws = protocol._Draws(1, 0, protocol._CHUNK)
    u = draws.u[:, 3].copy()

    def chunk():
        protocol._require_haar_draws(draws.u)
        return kernels.electronic_batch(setup, 1.0, u)

    assert _peak(chunk) <= 512 * 1024


def _span_resource(weights):
    """The mixed resource diagonal on (a doublon, b doublon, singlet) with ``weights``."""
    span = protocol.neutral_spin_zero_basis()
    return DensityMatrix(AB_MODES, span @ np.diag(weights) @ span.conj().T)


@pytest.mark.parametrize("variant, resource", [
    ("electronic", None), ("coldatom", None), ("mixed", _span_resource([0.25, 0.25, 0.5])),
], ids=["electronic", "coldatom", "mixed"])
def test_run_peak_does_not_grow_with_the_trial_count(variant, resource):
    # 10 and 100 chunks of Haar trials; keeping each trial's results would
    # add 24 bytes a trial, over 2 MiB at the larger count.  The cold-atom
    # peak follows the longest restart run of a chunk, which grows slowly
    # with the chunk count; so does the peak of a mixed run's misses
    small, large = (_peak(lambda: run_trials(None, variant, k * protocol._CHUNK, seed=3,
                                             resource=resource))
                    for k in (10, 100))
    assert large <= 1.25 * small, (small, large)


def test_mixed_trials_fold_one_chunk_at_a_time(monkeypatch):
    resource = _span_resource([0.25, 0.25, 0.5])
    whole = run_trials(None, "mixed", 10, seed=4, resource=resource)
    calls, seen = [], []
    real_batch, real_assemble = kernels.coldatom_batch, protocol._assemble_report

    def counted_batch(*args):
        calls.append(len(args[2](1)))  # the chunk's trials: the rows of its draw table
        return real_batch(*args)

    def watched_assemble(variant, seed, g, fidelity, chunks):
        def watched():
            for chunk in chunks:
                seen.append((len(chunk[0]), len(calls)))
                yield chunk
        return real_assemble(variant, seed, g, fidelity, watched())

    monkeypatch.setattr(protocol, "_CHUNK", 4)
    monkeypatch.setattr(kernels, "coldatom_batch", counted_batch)
    monkeypatch.setattr(protocol, "_assemble_report", watched_assemble)
    chunked = run_trials(None, "mixed", 10, seed=4, resource=resource)
    # one engine call per chunk, and each chunk reaches the report before
    # the next chunk's engine call
    assert calls == [4, 4, 2]
    assert seen == [(4, 1), (4, 2), (2, 3)]
    # the same trials, some of them restarted, and the same report
    assert max(whole.rounds_histogram) > 1
    assert chunked.to_json() == whole.to_json()
