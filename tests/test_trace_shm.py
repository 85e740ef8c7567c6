"""Shared-memory trace shipping: TraceArrays lifecycle and the
SweepRunner zero-copy path (repro.traces.shm, repro.parallel.runner)."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import ResultCache, SweepRunner
from repro.parallel.cache import canonicalize
from repro.traces import Trace, TraceArrays, generate_trace
from repro.traces.shm import TraceHandle


def make_trace(**meta):
    return Trace(
        times=[0.0, 1.0, 2.5, 2.5, 10.0],
        lbns=[100, 200, 100, 300, 50],
        sectors=[8, 16, 8, 32, 8],
        is_write=[False, True, False, False, True],
        **meta,
    )


def _psm_segments():
    root = Path("/dev/shm")
    if not root.is_dir():
        pytest.skip("no /dev/shm on this platform")
    return {p.name for p in root.iterdir() if p.name.startswith("psm_")}


# -- picklable worker tasks --------------------------------------------------

def _trace_stats(trace, factor=1):
    return (len(trace), float(trace.times[-1]), trace.digest()[:12], factor)


def _flaky_trace(sentinel, trace, crash=False):
    """Kills its worker once, then succeeds on the retry."""
    if crash and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return len(trace)


def _interrupt(trace, boom=False):
    if boom:
        raise KeyboardInterrupt
    return len(trace)


class TestTraceArrays:
    def test_export_attach_round_trip(self):
        trace = make_trace(name="tiny", capacity_sectors=4096)
        with TraceArrays.from_trace(trace) as arrays:
            attached = TraceArrays.attach(arrays.handle)
            try:
                copy = attached.as_trace()
                assert np.array_equal(copy.times, trace.times)
                assert np.array_equal(copy.lbns, trace.lbns)
                assert np.array_equal(copy.sectors, trace.sectors)
                assert np.array_equal(copy.is_write, trace.is_write)
                assert copy.name == "tiny"
                assert copy.capacity_sectors == 4096
            finally:
                attached.close()

    def test_handle_is_small_and_carries_digest(self):
        trace = make_trace()
        with TraceArrays.from_trace(trace) as arrays:
            handle = arrays.handle
            assert isinstance(handle, TraceHandle)
            assert handle.length == len(trace)
            assert handle.digest == trace.digest()

    def test_attached_trace_digest_is_seeded_not_recomputed(self):
        trace = make_trace()
        with TraceArrays.from_trace(trace) as arrays:
            attached = TraceArrays.attach(arrays.handle)
            try:
                copy = attached.as_trace()
                # Seeded from the handle at attach time, before digest()
                # is ever called: no O(n) rehash in the worker.
                assert copy._digest == trace.digest()
                assert copy.digest() == trace.digest()
            finally:
                attached.close()

    def test_attached_views_are_zero_copy(self):
        trace = make_trace()
        with TraceArrays.from_trace(trace) as arrays:
            attached = TraceArrays.attach(arrays.handle)
            try:
                copy = attached.as_trace()
                assert not copy.times.flags.owndata
                assert not copy.lbns.flags.owndata
            finally:
                attached.close()

    def test_cleanup_unlinks_segment(self):
        trace = make_trace()
        arrays = TraceArrays.from_trace(trace)
        handle = arrays.handle
        arrays.cleanup()
        with pytest.raises(FileNotFoundError):
            TraceArrays.attach(handle)

    def test_cleanup_is_idempotent(self):
        arrays = TraceArrays.from_trace(make_trace())
        arrays.cleanup()
        arrays.cleanup()  # second call must not raise

    def test_empty_trace_round_trips(self):
        empty = Trace(
            np.zeros(0), np.zeros(0, int), np.ones(0, int), np.zeros(0, bool)
        )
        with TraceArrays.from_trace(empty) as arrays:
            attached = TraceArrays.attach(arrays.handle)
            try:
                assert len(attached.as_trace()) == 0
            finally:
                attached.close()


class TestSweepRunnerShm:
    def test_parallel_results_match_serial(self):
        trace = generate_trace("MSRsrc11", duration=60.0, seed=5)
        params = [{"trace": trace, "factor": i} for i in range(4)]
        serial = SweepRunner(workers=0).map(_trace_stats, params)
        shm = SweepRunner(workers=2).map(_trace_stats, params)
        assert serial == shm

    def test_segments_unlinked_after_successful_map(self):
        before = _psm_segments()
        trace = generate_trace("MSRsrc11", duration=60.0, seed=5)
        SweepRunner(workers=2).map(
            _trace_stats, [{"trace": trace, "factor": i} for i in range(3)]
        )
        assert _psm_segments() - before == set()

    def test_worker_crash_retry_still_sees_the_trace(self, tmp_path):
        before = _psm_segments()
        trace = make_trace()
        sentinel = str(tmp_path / "crashed-once")
        params = [
            {"sentinel": sentinel, "trace": trace, "crash": i == 1}
            for i in range(4)
        ]
        results = SweepRunner(workers=2).map(_flaky_trace, params)
        assert results == [len(trace)] * 4
        assert _psm_segments() - before == set()

    def test_keyboard_interrupt_cleans_segments(self):
        before = _psm_segments()
        trace = make_trace()
        params = [{"trace": trace, "boom": i == 1} for i in range(3)]
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(workers=2).map(_interrupt, params)
        assert _psm_segments() - before == set()

    def test_cache_hits_create_no_segments(self, tmp_path, monkeypatch):
        trace = generate_trace("MSRsrc11", duration=60.0, seed=5)
        params = [{"trace": trace, "factor": i} for i in range(3)]
        cache = ResultCache(str(tmp_path))
        warm = SweepRunner(workers=2, cache=cache).map(_trace_stats, params)

        def _no_export(*args, **kwargs):
            raise AssertionError("cache hits must not export shared memory")

        monkeypatch.setattr(TraceArrays, "from_trace", _no_export)
        again = SweepRunner(workers=2, cache=cache).map(_trace_stats, params)
        assert again == warm
        assert cache.hits == len(params)

    def test_single_pending_task_skips_export(self, monkeypatch):
        # One task isn't worth a segment: it just runs serially.
        trace = make_trace()

        def _no_export(*args, **kwargs):
            raise AssertionError("single tasks must not export shared memory")

        monkeypatch.setattr(TraceArrays, "from_trace", _no_export)
        results = SweepRunner(workers=2).map(
            _trace_stats, [{"trace": trace}]
        )
        assert results == [_trace_stats(trace)]


class TestTraceCacheKeys:
    def test_canonicalize_uses_content_digest(self):
        trace = make_trace(name="a")
        assert canonicalize(trace) == ("trace", trace.digest())

    def test_same_name_different_content_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        t1 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        t2 = generate_trace("MSRsrc11", duration=60.0, seed=2)
        assert cache.key(_trace_stats, {"trace": t1}) != cache.key(
            _trace_stats, {"trace": t2}
        )

    def test_same_content_same_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        t1 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        t2 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        assert t1 is not t2
        assert cache.key(_trace_stats, {"trace": t1}) == cache.key(
            _trace_stats, {"trace": t2}
        )
