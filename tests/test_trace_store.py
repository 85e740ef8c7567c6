"""Out-of-core trace store: round-trip fidelity, integrity checking,
corpus indexing, and zero-copy replay (repro.traces.store).

The central properties:

* a store round-trips bit-identically — columns, digest, and replay
  outcomes all match the in-memory trace it was written from;
* the on-disk layout is a pure function of trace *content* (writer
  chunking never shows through);
* truncated or corrupt data is refused, never silently served.
"""

import numpy as np
import pytest

from repro.traces import (
    StoredTrace,
    StoreIntegrityError,
    Trace,
    TraceCorpus,
    TraceStoreError,
    generate_corpus,
    generate_trace,
    idle_intervals_streaming,
    write_trace,
)
from repro.traces.idle import idle_intervals_from_trace


def small_trace(n=1000, seed=7, name="small"):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(0.01, n))
    return Trace(
        times=times,
        lbns=rng.integers(0, 1 << 20, n),
        sectors=rng.choice([8, 16, 64], n),
        is_write=rng.random(n) < 0.3,
        name=name,
        capacity_sectors=1 << 24,
    )


# -- round trip --------------------------------------------------------------


class TestRoundTrip:
    def test_columns_bit_identical(self, tmp_path):
        trace = small_trace()
        stored = write_trace(trace, tmp_path / "s", chunk_requests=256)
        assert len(stored) == len(trace)
        assert stored.chunk_count == 4  # 1000 requests / 256
        chunks = list(stored.iter_chunks())
        for attr in ("times", "lbns", "sectors", "is_write"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(c, attr) for c in chunks]),
                getattr(trace, attr),
            )
        assert stored.capacity_sectors == trace.capacity_sectors
        assert stored.name == trace.name

    def test_digest_matches_in_memory_trace(self, tmp_path):
        trace = small_trace()
        stored = write_trace(trace, tmp_path / "s", chunk_requests=300)
        assert stored.digest() == trace.digest()

    def test_duration_and_time_range_from_header(self, tmp_path):
        trace = small_trace()
        stored = write_trace(trace, tmp_path / "s", chunk_requests=256)
        assert stored.duration == pytest.approx(trace.duration)
        lo, hi = stored.time_range
        assert lo == float(trace.times[0]) and hi == float(trace.times[-1])

    def test_layout_independent_of_writer_chunking(self, tmp_path):
        """Per-chunk digests depend on content, not how chunks arrived."""
        trace = small_trace()
        parts = [
            Trace(
                trace.times[a:b], trace.lbns[a:b],
                trace.sectors[a:b], trace.is_write[a:b],
                name=trace.name, capacity_sectors=trace.capacity_sectors,
                validate=False,
            )
            for a, b in [(0, 37), (37, 500), (500, 501), (501, 1000)]
        ]
        mono = write_trace(trace, tmp_path / "mono", chunk_requests=128)
        streamed = write_trace(iter(parts), tmp_path / "str", chunk_requests=128)
        assert streamed.digest() == mono.digest()
        assert [c["sha256"] for c in streamed._chunks] == [
            c["sha256"] for c in mono._chunks
        ]

    def test_iteration_yields_time_ordered_chunks(self, tmp_path):
        trace = small_trace()
        stored = write_trace(trace, tmp_path / "s", chunk_requests=256)
        chunks = list(stored)
        assert [len(c) for c in chunks] == [256, 256, 256, 232]
        np.testing.assert_array_equal(
            np.concatenate([c.times for c in chunks]), trace.times
        )

    def test_records_match_legacy_feed(self, tmp_path):
        trace = small_trace(n=64)
        stored = write_trace(trace, tmp_path / "s", chunk_requests=16)
        assert list(stored.records()) == list(trace.records())

    def test_unsorted_source_refused(self, tmp_path):
        trace = small_trace(n=32)
        backwards = Trace(
            trace.times[::-1].copy(), trace.lbns, trace.sectors,
            trace.is_write, validate=False,
        )
        with pytest.raises(TraceStoreError, match="non-decreasing"):
            write_trace(backwards, tmp_path / "s", chunk_requests=16)

    def test_cross_chunk_sort_violation_refused(self, tmp_path):
        a = small_trace(n=32)
        b = Trace(
            a.times - 100.0, a.lbns, a.sectors, a.is_write, validate=False
        )
        with pytest.raises(TraceStoreError, match="time-sorted"):
            write_trace(iter([a, b]), tmp_path / "s", chunk_requests=16)


# -- integrity ---------------------------------------------------------------


class TestIntegrity:
    def test_truncated_chunk_refused_at_open(self, tmp_path):
        stored = write_trace(small_trace(), tmp_path / "s", chunk_requests=256)
        victim = stored.path / "chunk-000001.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(StoreIntegrityError, match="expected"):
            StoredTrace.open(stored.path)

    def test_missing_chunk_refused_at_open(self, tmp_path):
        stored = write_trace(small_trace(), tmp_path / "s", chunk_requests=256)
        (stored.path / "chunk-000002.bin").unlink()
        with pytest.raises(StoreIntegrityError, match="missing chunk"):
            StoredTrace.open(stored.path)

    def test_flipped_byte_refused_at_first_read(self, tmp_path):
        stored = write_trace(small_trace(), tmp_path / "s", chunk_requests=256)
        victim = stored.path / "chunk-000001.bin"
        blob = bytearray(victim.read_bytes())
        blob[100] ^= 0xFF  # same size, different content
        victim.write_bytes(bytes(blob))
        reopened = StoredTrace.open(stored.path)  # size check passes
        reopened.chunk(0)  # intact chunk still serves
        with pytest.raises(StoreIntegrityError, match="refusing corrupt"):
            reopened.chunk(1)

    def test_verify_audits_every_chunk(self, tmp_path):
        stored = write_trace(small_trace(), tmp_path / "s", chunk_requests=256)
        stored.verify()  # intact store passes
        victim = stored.path / "chunk-000003.bin"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(StoreIntegrityError):
            StoredTrace.open(stored.path).verify()

    def test_headerless_directory_refused(self, tmp_path):
        with pytest.raises(TraceStoreError, match="no header"):
            StoredTrace.open(tmp_path)

    def test_existing_store_not_overwritten(self, tmp_path):
        write_trace(small_trace(n=16), tmp_path / "s", chunk_requests=8)
        with pytest.raises(TraceStoreError, match="already exists"):
            write_trace(small_trace(n=16), tmp_path / "s", chunk_requests=8)


# -- streaming idle extraction ----------------------------------------------


class TestIdleStreaming:
    def test_single_chunk_bit_identical_to_monolithic(self):
        trace = generate_trace("MSRusr2", duration=600, seed=1)
        starts, durations = idle_intervals_from_trace(trace)
        s2, d2 = idle_intervals_streaming(iter([trace]))
        np.testing.assert_array_equal(s2, starts)
        np.testing.assert_array_equal(d2, durations)

    def test_multi_chunk_matches_monolithic(self, tmp_path):
        trace = generate_trace("MSRusr2", duration=600, seed=1)
        stored = write_trace(trace, tmp_path / "s", chunk_requests=500)
        assert stored.chunk_count > 3
        starts, durations = idle_intervals_from_trace(trace)
        s2, d2 = idle_intervals_streaming(stored.iter_chunks())
        assert len(d2) == len(durations)
        np.testing.assert_allclose(s2, starts, rtol=0, atol=1e-9)
        np.testing.assert_allclose(d2, durations, rtol=0, atol=1e-9)

    def test_deterministic_for_fixed_chunking(self, tmp_path):
        trace = generate_trace("MSRusr2", duration=600, seed=1)
        stored = write_trace(trace, tmp_path / "s", chunk_requests=500)
        a = idle_intervals_streaming(stored.iter_chunks())
        b = idle_intervals_streaming(stored.iter_chunks())
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


# -- replay ------------------------------------------------------------------


class TestStoredReplay:
    def test_replay_bit_identical_to_in_memory(self, tmp_path):
        from repro.analysis.replay_cdf import replay_with_scrubber
        from repro.disk.models import PRESETS

        trace = generate_trace("MSRusr2", duration=300, seed=2)
        stored = write_trace(trace, tmp_path / "s", chunk_requests=400)
        assert stored.chunk_count > 1
        spec = PRESETS["ultrastar"]()
        waiting = {"threshold": 0.05, "request_bytes": 256 * 1024}
        mem = replay_with_scrubber(trace, spec, waiting=waiting)
        disk = replay_with_scrubber(stored, spec, waiting=waiting)
        np.testing.assert_array_equal(
            disk.fg_response_times, mem.fg_response_times
        )
        assert disk.scrub_bytes == mem.scrub_bytes
        assert disk.trace_digest == mem.trace_digest

    def test_cache_key_parity_with_in_memory_trace(self, tmp_path):
        from repro.parallel.cache import canonicalize

        trace = small_trace()
        stored = write_trace(trace, tmp_path / "s", chunk_requests=256)
        assert canonicalize(stored) == canonicalize(trace)


# -- corpus ------------------------------------------------------------------


class TestCorpus:
    def test_create_add_open(self, tmp_path):
        corpus = TraceCorpus.create(tmp_path / "c")
        corpus.add("alpha", small_trace(name="alpha"), chunk_requests=256)
        corpus.add("beta", small_trace(seed=9, name="beta"), chunk_requests=256)
        reopened = TraceCorpus.open(tmp_path / "c")
        assert reopened.names() == ["alpha", "beta"]
        assert "alpha" in reopened and "nope" not in reopened
        row = reopened.describe("alpha")
        assert row["requests"] == 1000 and row["chunks"] == 4
        entry = reopened.entry("alpha")
        assert entry.digest() == row["digest"]

    def test_duplicate_and_invalid_names_refused(self, tmp_path):
        corpus = TraceCorpus.create(tmp_path / "c")
        corpus.add("alpha", small_trace(), chunk_requests=256)
        with pytest.raises(TraceStoreError, match="already exists"):
            corpus.add("alpha", small_trace(), chunk_requests=256)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(TraceStoreError, match="invalid"):
                corpus.add(bad, small_trace(), chunk_requests=256)

    def test_unknown_entry_raises_keyerror(self, tmp_path):
        corpus = TraceCorpus.create(tmp_path / "c")
        with pytest.raises(KeyError, match="unknown corpus entry"):
            corpus.describe("ghost")

    def test_generate_corpus_is_seed_deterministic(self, tmp_path):
        a = generate_corpus(
            tmp_path / "a", names=["MSRusr2"], duration=300, seed=5,
            chunk_requests=512,
        )
        b = generate_corpus(
            tmp_path / "b", names=["MSRusr2"], duration=300, seed=5,
            chunk_requests=512,
        )
        assert a.describe("MSRusr2")["digest"] == b.describe("MSRusr2")["digest"]

    def test_generate_corpus_repetitions_tile_time(self, tmp_path):
        corpus = generate_corpus(
            tmp_path / "c", names=["MSRusr2"], duration=300, seed=5,
            repetitions=3, chunk_requests=512,
        )
        single = generate_trace("MSRusr2", duration=300, seed=5)
        stored = corpus.entry("MSRusr2")
        assert len(stored) == 3 * len(single)
        assert stored.duration > 2.9 * single.duration
        times = np.concatenate([c.times for c in stored.iter_chunks()])
        assert np.all(np.diff(times) >= 0)
