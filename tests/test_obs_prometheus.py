"""Tests for the Prometheus textfile exporter (PR 8)."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import prometheus_lines, write_textfile


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("sim.requests.completed").inc(42)
    registry.gauge("queue.depth").set(3.5)
    hist = registry.histogram("request.latency")
    for value in (1e-4, 1e-3, 1e-3, 2.0):
        hist.observe(value)
    return registry.snapshot()


class TestLines:
    def test_counter_and_gauge(self):
        lines = prometheus_lines(_snapshot())
        assert "# TYPE repro_sim_requests_completed counter" in lines
        assert "repro_sim_requests_completed 42" in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "repro_queue_depth 3.5" in lines

    def test_histogram_buckets_are_cumulative_and_end_at_count(self):
        lines = prometheus_lines(_snapshot())
        buckets = [
            line for line in lines
            if line.startswith("repro_request_latency_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative never decreases
        assert counts[-1] == 4
        assert 'le="+Inf"' in buckets[-1]
        assert "repro_request_latency_count 4" in lines
        sum_line = [
            line for line in lines
            if line.startswith("repro_request_latency_sum ")
        ]
        value = float(sum_line[0].split(" ")[1])
        assert value == pytest.approx(1e-4 + 1e-3 + 1e-3 + 2.0)

    def test_name_sanitisation(self):
        lines = prometheus_lines(
            {"counters": {"drive-0.cache/hits": 1}, "gauges": {},
             "histograms": {}},
        )
        assert "repro_drive_0_cache_hits 1" in lines

    def test_nonfinite_values(self):
        lines = prometheus_lines(
            {"counters": {}, "histograms": {},
             "gauges": {"a": math.inf, "b": math.nan}},
        )
        assert "repro_a +Inf" in lines
        rendered = [line for line in lines if line.startswith("repro_b ")]
        assert rendered == ["repro_b NaN"]

    def test_float_roundtrip_lossless(self):
        value = 0.1 + 0.2  # not exactly 0.3
        lines = prometheus_lines(
            {"counters": {"x": value}, "gauges": {}, "histograms": {}},
        )
        text = [line for line in lines if line.startswith("repro_x ")][0]
        assert float(text.split(" ")[1]) == value


class TestTextfile:
    def test_write_and_content(self, tmp_path):
        path = tmp_path / "repro.prom"
        written = write_textfile(str(path), _snapshot())
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == written
        assert "repro_sim_requests_completed 42" in text

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "repro.prom"
        write_textfile(str(path), _snapshot())
        write_textfile(str(path), _snapshot())
        # No temp litter left behind next to the textfile.
        assert [p.name for p in tmp_path.iterdir()] == ["repro.prom"]
