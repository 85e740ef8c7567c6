"""Tests for deterministic span tracing (PR 8).

Span IDs must be a pure function of (campaign digest, tree path) so
traces from a fresh run and a post-SIGKILL resume overlay exactly;
the recorder must tolerate out-of-order lifecycles and export valid
Chrome trace events even with spans still open.
"""

import json

from repro.obs.spans import Span, SpanRecorder, span_id
from repro.obs.trace import write_chrome_trace


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestSpanId:
    def test_deterministic(self):
        a = span_id("digest", "shard", 3, "attempt", 1)
        b = span_id("digest", "shard", 3, "attempt", 1)
        assert a == b

    def test_path_sensitive(self):
        base = span_id("digest", "shard", 3, "attempt", 1)
        assert span_id("digest", "shard", 3, "attempt", 2) != base
        assert span_id("digest", "shard", 4, "attempt", 1) != base
        assert span_id("other", "shard", 3, "attempt", 1) != base

    def test_fits_in_63_bits(self):
        for path in (("a",), ("shard", 0), ("x", 1, "y", 2, "z", "w")):
            sid = span_id("root", *path)
            assert 0 <= sid < 2 ** 63


class TestSpanRecorder:
    def test_begin_end_duration(self):
        clock = _FakeClock()
        rec = SpanRecorder("digest", clock=clock)
        rec.begin("shard 0", "shard", 0, category="attempt", tid=1)
        clock.tick(2.5)
        rec.end("shard", 0, args={"outcome": "ok"})
        (span,) = rec.spans()
        assert span.duration == 2.5
        assert span.args["outcome"] == "ok"
        assert span.tid == 1

    def test_end_unknown_path_is_noop(self):
        rec = SpanRecorder("digest", clock=_FakeClock())
        rec.end("shard", 99)  # never begun
        assert rec.spans() == ()

    def test_timestamps_relative_to_first_span(self):
        clock = _FakeClock(start=5_000.0)
        rec = SpanRecorder("digest", clock=clock)
        rec.begin("campaign", "campaign")
        clock.tick(1.0)
        rec.end("campaign")
        (span,) = rec.spans()
        assert span.start == 0.0
        assert span.end == 1.0

    def test_open_spans_export_as_if_ended_now(self):
        clock = _FakeClock()
        rec = SpanRecorder("digest", clock=clock)
        rec.begin("campaign", "campaign")
        clock.tick(3.0)
        events = rec.chrome_events()
        xs = [e for e in events if e.get("ph") == "X"]
        assert len(xs) == 1
        assert xs[0]["dur"] == 3.0 * 1e6
        # Exporting did not close the span.
        rec.end("campaign")
        assert len(rec.spans()) == 1

    def test_instant_marker(self):
        rec = SpanRecorder("digest", clock=_FakeClock())
        rec.instant("shard 3 death", category="failure", tid=4)
        events = rec.chrome_events()
        markers = [e for e in events if e.get("ph") == "i"]
        assert len(markers) == 1
        assert markers[0]["name"] == "shard 3 death"

    def test_add_timed_phase(self):
        rec = SpanRecorder("digest", clock=_FakeClock())
        rec.add_timed(
            "policy weekly", 1.0, 0.25,
            "shard", 0, "attempt", 1, "phase", "weekly",
            tid=1,
        )
        (span,) = rec.spans()
        assert span.duration == 0.25
        assert span.sid == span_id(
            "digest", "shard", 0, "attempt", 1, "phase", "weekly"
        )

    def test_thread_metadata_events(self):
        rec = SpanRecorder("digest", clock=_FakeClock())
        rec.name_thread(0, "campaign")
        rec.name_thread(1, "shard 0")
        events = rec.chrome_events(process_name="fleet")
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "fleet"
        assert [e["args"]["name"] for e in meta if e["name"] == "thread_name"] \
            == ["campaign", "shard 0"]

    def test_export_roundtrips_through_trace_writer(self, tmp_path):
        clock = _FakeClock()
        rec = SpanRecorder("digest", clock=clock)
        rec.begin("campaign", "campaign", tid=0)
        rec.begin("shard 0 attempt 1", "shard", 0, "attempt", 1, tid=1)
        clock.tick(0.5)
        rec.end("shard", 0, "attempt", 1)
        rec.end("campaign")
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), rec.chrome_events())
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 2
        # Every duration span carries its deterministic ID for diffing.
        assert all(len(e["args"]["span_id"]) == 16 for e in xs)

    def test_span_ids_stable_across_recorders(self):
        first = SpanRecorder("digest", clock=_FakeClock())
        second = SpanRecorder("digest", clock=_FakeClock(start=9.9))
        a = first.begin("s", "shard", 1, "attempt", 2)
        b = second.begin("s", "shard", 1, "attempt", 2)
        assert a == b


def test_span_duration_of_open_span_is_zero():
    span = Span(1, "x", "campaign", 0, 10.0)
    assert span.duration == 0.0
