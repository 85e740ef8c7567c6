"""Tests for deterministic span tracing (PR 8).

Span IDs must be a pure function of (campaign digest, tree path) so
traces from a fresh run and a post-SIGKILL resume overlay exactly.
The span tree itself is replayed from the monitor's event log by
:meth:`repro.obs.report.CampaignFold.spans`: it must tolerate
out-of-order lifecycles and export valid Chrome trace events even with
spans still open.
"""

import json

from repro.obs.report import CampaignFold
from repro.obs.spans import Span, span_id
from repro.obs.trace import write_chrome_trace


def _fold(*records, start=100.0, shards=1):
    """Fold a campaign of ``shards`` ten-group shards that starts at
    monotonic ``start``, then ``(seconds after start, event, fields)``
    records."""
    fold = CampaignFold()
    fold.add({
        "t": start, "mono": start, "event": "campaign_started",
        "campaign": "digest", "shards": shards, "groups": 10 * shards,
        "shard_groups": [10] * shards, "workers": 1,
    })
    for offset, event, fields in records:
        fold.add(dict(fields, t=start + offset, mono=start + offset, event=event))
    return fold


def _named(fold, name):
    return [span for span in fold.spans()[1] if span.name == name]


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
    """The span tree the fold replays from a log."""

    def test_begin_end_duration(self):
        fold = _fold(
            (0.0, "attempt_started", {"shard": 0, "attempt": 1}),
            (2.5, "shard_completed", {"shard": 0, "attempt": 1, "groups": 10}),
        )
        (span,) = _named(fold, "shard 0 attempt 1")
        assert span.duration == 2.5
        assert span.args["outcome"] == "ok"
        assert span.tid == 1

    def test_end_unknown_path_is_noop(self):
        fold = _fold((1.0, "shard_completed", {"shard": 0, "attempt": 9}))
        (span,) = fold.spans()[1]  # the campaign span, still open
        assert span.category == "campaign"

    def test_timestamps_relative_to_first_span(self):
        fold = _fold((1.0, "campaign_finished", {"state": "done"}), start=5_000.0)
        (span,) = fold.spans()[1]
        assert span.start == 0.0
        assert span.end == 1.0

    def test_open_spans_export_as_if_ended_now(self):
        fold = _fold((3.0, "heartbeat", {"shard": 0, "done": 1, "total": 2}))
        xs = [e for e in fold.chrome_events() if e.get("ph") == "X"]
        assert len(xs) == 1
        assert xs[0]["dur"] == 3.0 * 1e6
        # Exporting did not close the span.
        fold.add({"t": 104.0, "mono": 104.0, "event": "campaign_finished"})
        (span,) = fold.spans()[1]
        assert span.duration == 4.0

    def test_instant_marker(self):
        fold = _fold(
            (0.5, "attempt_failed",
             {"shard": 3, "attempt": 1, "kind": "death", "error": "gone"}),
            shards=4,
        )
        markers = [e for e in fold.chrome_events() if e.get("ph") == "i"]
        assert len(markers) == 1
        assert markers[0]["name"] == "shard 3 death"
        assert markers[0]["tid"] == 4

    def test_add_timed_phase(self):
        fold = _fold(
            (0.0, "attempt_started", {"shard": 0, "attempt": 1}),
            (1.0, "shard_completed", {
                "shard": 0, "attempt": 1,
                "phases": [{"policy": "weekly", "wall_s": 0.25}],
            }),
        )
        (span,) = _named(fold, "policy weekly")
        assert span.duration == 0.25
        assert span.sid == span_id(
            "digest", "shard", 0, "attempt", 1, "phase", "weekly"
        )

    def test_thread_metadata_events(self):
        meta = [e for e in _fold().chrome_events() if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "campaign"
        assert [e["args"]["name"] for e in meta if e["name"] == "thread_name"] \
            == ["campaign", "shard 0"]

    def test_export_roundtrips_through_trace_writer(self, tmp_path):
        fold = _fold(
            (0.0, "attempt_started", {"shard": 0, "attempt": 1}),
            (0.5, "shard_completed", {"shard": 0, "attempt": 1}),
            (0.5, "campaign_finished", {"state": "done"}),
        )
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), fold.chrome_events())
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 2
        # Every duration span carries its deterministic ID for diffing.
        assert all(len(e["args"]["span_id"]) == 16 for e in xs)

    def test_span_ids_stable_across_recorders(self):
        started = (0.0, "attempt_started", {"shard": 1, "attempt": 2})
        first = _fold(started, shards=2)
        second = _fold(started, shards=2, start=9.9)
        (a,) = _named(first, "shard 1 attempt 2")
        (b,) = _named(second, "shard 1 attempt 2")
        assert a.sid == b.sid == span_id("digest", "shard", 1, "attempt", 2)


def test_span_duration_of_open_span_is_zero():
    span = Span(1, "x", "campaign", 0, 10.0)
    assert span.duration == 0.0
