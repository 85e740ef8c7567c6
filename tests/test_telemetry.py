"""Tests for the simulation side of :mod:`repro.obs`: the metrics
registry, the sink protocol, the recorder and its exports.

Three properties matter most and get the heaviest coverage:

* telemetry is *passive* — experiment results are bit-identical with a
  :class:`Recorder` attached, with the no-op base sink, and with no
  sink at all;
* per-task telemetry survives the process pool and merges to the same
  fleet summary serially and in parallel;
* the Chrome trace export round-trips through ``json.load`` with a
  queued -> dispatched -> completed span pair for every served request.
"""

import dataclasses
import io
import json
import math

import pytest

from repro.analysis.detection import (
    detection_sweep_task,
    run_detection_experiment,
    shrunk_spec,
)
from repro.core import SequentialScrub, Scrubber
from repro.disk import DiskCommand, Drive, hitachi_ultrastar_15k450
from repro.obs.export import error_log_records, request_log_records, write_jsonl
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    _snapshot_percentile,
    format_table,
    merge_snapshots,
)
from repro.obs.sink import Recorder, TelemetrySink
from repro.obs.trace import with_pid, write_chrome_trace
from repro.parallel import SweepRunner
from repro.sched import BlockDevice, IORequest, NoopScheduler
from repro.sim import Simulation


def small_spec():
    return shrunk_spec(hitachi_ultrastar_15k450(), cylinders=20)


def run_traced_scrub(telemetry=None, horizon=0.5, max_log_records=None):
    """A small scrub + foreground run; returns (device, scrubber)."""
    sim = Simulation(telemetry=telemetry)
    device = BlockDevice(
        sim,
        Drive(small_spec(), cache_enabled=False),
        NoopScheduler(),
        max_log_records=max_log_records,
    )
    scrubber = Scrubber(sim, device, SequentialScrub(), request_bytes=64 * 1024)
    scrubber.start()
    for i in range(20):
        device.submit(
            IORequest(DiskCommand.read(i * 100, 8), source="foreground")
        )
    sim.run(until=horizon)
    return device, scrubber


# -- metrics registry ---------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("b").set(2.5)
        assert registry.counter("a").value == 5
        assert registry.gauge("b").value == 2.5
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 5}
        assert snapshot["gauges"] == {"b": 2.5}
        assert snapshot["histograms"] == {}

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        for value in (0.001, 0.002, 0.004, 0.1):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 0.001
        assert hist.max == 0.1
        snap = registry.snapshot()["histograms"]["t"]
        assert snap["sum"] / snap["count"] == pytest.approx(0.02675)
        # Percentiles are bucket upper bounds clamped to the true max.
        assert 0.001 <= _snapshot_percentile(snap, 0.25) <= 0.0018
        assert _snapshot_percentile(snap, 1.0) == 0.1
        assert _snapshot_percentile(snap, 0.0) >= hist.min / 1.78

    def test_histogram_under_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        hist.observe(1e-9)
        hist.observe(1e9)
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        snap = registry.snapshot()["histograms"]["t"]
        assert _snapshot_percentile(snap, 1.0) == 1e9
        assert _snapshot_percentile(snap, 0.5) == Histogram.bucket_bound(0)

    def test_empty_histogram_snapshot_is_finite(self):
        registry = MetricsRegistry()
        registry.histogram("t")
        snap = registry.snapshot()["histograms"]["t"]
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert math.isfinite(snap["min"])

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)  # must not raise

    def test_merge_snapshots(self):
        first = MetricsRegistry()
        first.counter("n").inc(2)
        first.gauge("g").set(1.0)
        first.histogram("h").observe(0.01)
        second = MetricsRegistry()
        second.counter("n").inc(3)
        second.gauge("g").set(4.0)
        second.histogram("h").observe(0.04)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"]["n"] == 5
        assert merged["gauges"]["g"] == 4.0
        hist = merged["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["min"] == 0.01 and hist["max"] == 0.04

    def test_merge_skips_empty_histogram_min_max(self):
        empty = MetricsRegistry()
        empty.histogram("h")
        full = MetricsRegistry()
        full.histogram("h").observe(0.5)
        merged = merge_snapshots([empty.snapshot(), full.snapshot()])
        assert merged["histograms"]["h"]["min"] == 0.5
        assert merged["histograms"]["h"]["max"] == 0.5

    def test_merge_is_order_independent(self):
        parts = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.counter("n").inc(i + 1)
            registry.histogram("h").observe(0.001 * (i + 1))
            parts.append(registry.snapshot())
        assert merge_snapshots(parts) == merge_snapshots(reversed(parts))

    def test_format_table(self):
        registry = MetricsRegistry()
        registry.counter("device.completed").inc(7)
        registry.gauge("scrub.progress").set(0.25)
        registry.histogram("lat").observe(0.002)
        text = format_table(registry.snapshot(), title="run")
        assert "== run ==" in text
        assert "device.completed" in text
        assert "p95" in text
        assert format_table({}) == "(no metrics recorded)"


# -- sinks --------------------------------------------------------------------


class TestSinks:
    def test_base_sink_hooks_are_noops(self):
        sink = TelemetrySink()
        sink.scrub_progress(0.0, "scrubber", 0.5)
        sink.fault_event(0.0, "remap", 7)
        sink.engine_run(10, 1.0, 0.1)
        sink.attach_log(None)
        # A pure protocol: no switch to test, no registry to carry.
        assert vars(sink) == {}

    def test_recorder_captures_lifecycle(self):
        recorder = Recorder()
        device, _ = run_traced_scrub(telemetry=recorder)
        counters = recorder.snapshot()["counters"]
        assert counters["device.completed"] == len(device.log)
        assert counters["drive.commands"] == len(device.log)
        assert counters["scrub.passes_started"] >= 1
        assert counters["engine.runs"] == 1
        sources = {
            e["args"]["source"]
            for e in recorder.chrome_events()
            if e.get("cat") == "service"
        }
        assert {"foreground", "scrubber"} <= sources

    def test_recorder_wall_time_opt_in(self):
        recorder = Recorder()  # default: deterministic, no wall clock
        run_traced_scrub(telemetry=recorder)
        gauges = recorder.snapshot()["gauges"]
        assert "engine.wall_seconds" not in gauges
        timed = Recorder(wall_time=True)
        run_traced_scrub(telemetry=timed)
        assert timed.snapshot()["gauges"]["engine.wall_seconds"] > 0


# -- determinism --------------------------------------------------------------


def strip_telemetry(result):
    return dataclasses.replace(result, telemetry=None)


class TestDeterminism:
    def test_recorder_does_not_perturb_results(self):
        kwargs = dict(algorithm="staggered", horizon=2.0, seed=5,
                      foreground=True)
        bare = run_detection_experiment(small_spec(), **kwargs)
        noop = run_detection_experiment(
            small_spec(), telemetry=TelemetrySink(), **kwargs
        )
        recorded = run_detection_experiment(
            small_spec(), telemetry=Recorder(), **kwargs
        )
        assert bare == noop == recorded

    def test_recorder_snapshot_reproducible(self):
        snaps = []
        for _ in range(2):
            recorder = Recorder()
            run_detection_experiment(
                small_spec(), horizon=1.5, seed=3, telemetry=recorder
            )
            snaps.append(recorder.export())
        assert snaps[0] == snaps[1]

    def test_serial_and_parallel_telemetry_identical(self):
        param_sets = [
            dict(drive="ultrastar", cylinders=20, algorithm=algorithm,
                 horizon=1.5, seed=7, collect_telemetry=True)
            for algorithm in ("sequential", "staggered")
        ]
        serial = SweepRunner(workers=0).map(detection_sweep_task, param_sets)
        parallel = SweepRunner(workers=2).map(detection_sweep_task, param_sets)
        for s, p in zip(serial, parallel):
            assert s.telemetry is not None
            assert s.telemetry == p.telemetry
            assert strip_telemetry(s) == strip_telemetry(p)
        assert SweepRunner.merge_task_telemetry(
            serial
        ) == SweepRunner.merge_task_telemetry(parallel)

    def test_collect_telemetry_does_not_change_results(self):
        base = dict(drive="ultrastar", cylinders=20, horizon=1.5, seed=7)
        plain = detection_sweep_task(**base)
        collected = detection_sweep_task(collect_telemetry=True, **base)
        assert plain == strip_telemetry(collected)

    def test_engine_event_order_identical_with_recorder(self):
        # A recording sink must leave the engine firing events in
        # exactly the same order as a run without one.
        import repro.sim as kernel
        from tests.test_sim_determinism import run_scenario

        class recorder_kernel:
            Interrupt = kernel.Interrupt

            @staticmethod
            def Simulation():
                return kernel.Simulation(telemetry=Recorder())

        assert run_scenario(kernel) == run_scenario(recorder_kernel)

    def test_merge_task_telemetry_counts_fleet_totals(self):
        results = [
            detection_sweep_task(
                drive="ultrastar", cylinders=20, horizon=1.0, seed=s,
                collect_telemetry=True,
            )
            for s in (1, 2)
        ]
        fleet = SweepRunner.merge_task_telemetry(results)
        per_task = [r.telemetry["metrics"]["counters"] for r in results]
        assert fleet["counters"]["device.completed"] == sum(
            c["device.completed"] for c in per_task
        )


# -- chrome trace export ------------------------------------------------------


class TestChromeTrace:
    def test_round_trip_with_span_per_request(self, tmp_path):
        recorder = Recorder()
        device, _ = run_traced_scrub(telemetry=recorder)
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), recorder.chrome_events())
        data = json.load(open(out))  # must round-trip
        events = data["traceEvents"]
        assert len(events) == count
        waits = [e for e in events if e["ph"] == "X" and e["cat"] == "queue"]
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "service"]
        served = len(device.log)
        assert len(waits) == served
        assert len(spans) == served
        for span in spans:
            assert span["dur"] >= 0
            assert {"lbn", "sectors", "source", "status"} <= set(span["args"])
        # wait span end == service span start for the same request
        assert waits[0]["ts"] + waits[0]["dur"] == pytest.approx(spans[0]["ts"])

    def test_thread_per_source_and_progress_counters(self):
        recorder = Recorder()
        run_traced_scrub(telemetry=recorder)
        events = recorder.chrome_events(process_name="run")
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"foreground", "scrubber"} <= names
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(0.0 <= e["args"]["fraction"] <= 1.0 for e in counters)

    def test_with_pid_rehomes_events(self):
        recorder = Recorder()
        run_traced_scrub(telemetry=recorder)
        moved = with_pid(recorder.chrome_events(), pid=3, process_name="task3")
        assert all(e["pid"] == 3 for e in moved)
        meta = [e for e in moved if e.get("name") == "process_name"]
        assert meta[0]["args"] == {"name": "task3"}

    def test_write_to_file_object(self):
        buffer = io.StringIO()
        write_chrome_trace(buffer, [])
        assert json.loads(buffer.getvalue()) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


# -- request log ring buffer --------------------------------------------------


class TestRequestLogRing:
    def test_default_is_unbounded(self):
        device, _ = run_traced_scrub()
        assert device.log.max_records is None
        assert device.log.dropped == 0

    def test_ring_keeps_most_recent(self):
        device, _ = run_traced_scrub(max_log_records=10)
        assert len(device.log) == 10
        assert device.log.dropped > 0
        completes = [r.complete_time for r in device.log.requests()]
        assert completes == sorted(completes)

    def test_ring_and_unbounded_agree_on_tail(self):
        full, _ = run_traced_scrub()
        ring, _ = run_traced_scrub(max_log_records=10)
        tail = full.log.requests()[-10:]
        assert [r.complete_time for r in ring.log.requests()] == [
            r.complete_time for r in tail
        ]
        assert ring.log.dropped == len(full.log) - 10

    def test_rejects_non_positive(self):
        from repro.sched.device import RequestLog

        with pytest.raises(ValueError):
            RequestLog(max_records=0)


# -- jsonl export -------------------------------------------------------------


class TestJsonlExport:
    def test_request_log_jsonl(self, tmp_path):
        device, _ = run_traced_scrub()
        out = tmp_path / "requests.jsonl"
        count = write_jsonl(str(out), request_log_records(device.log))
        lines = out.read_text().splitlines()
        assert count == len(lines) == len(device.log)
        record = json.loads(lines[0])
        assert {"submit", "dispatch", "complete", "opcode", "lbn",
                "source", "status"} <= set(record)

    def test_error_log_jsonl(self):
        from repro.faults import MediaFaults, build_model

        spec = small_spec()
        plan = build_model(
            "bursts", inter_burst_mean=0.5, in_burst_time_mean=0.01
        ).generate(Drive(spec, cache_enabled=False).total_sectors, 2.0, 3)
        assert len(plan.errors) > 0
        faults = MediaFaults(plan)
        sim = Simulation()
        drive = Drive(spec, cache_enabled=False)
        drive.install_faults(faults)
        device = BlockDevice(sim, drive, NoopScheduler())
        scrubber = Scrubber(sim, device, SequentialScrub())
        scrubber.start()
        sim.run(until=2.0)
        faults.finalize(2.0)
        buffer = io.StringIO()
        count = write_jsonl(buffer, error_log_records(faults.log))
        assert count == len(faults.log.records) > 0
        for line in buffer.getvalue().splitlines():
            assert {"time", "kind", "lbn"} <= set(json.loads(line))


# -- cli ----------------------------------------------------------------------


class TestCli:
    def test_trace_conflicting_sources_exit_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--trace", "x.csv", "--synthetic", "MSRsrc11"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--synthetic: not allowed with argument --trace" in err

    def test_trace_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        code = main([
            "trace", "--drive", "ultrastar", "--cylinders", "20",
            "--horizon", "0.5", "--foreground",
            "--out", str(out), "--jsonl", str(tmp_path / "x"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "run telemetry" in stdout
        assert "trace events" in stdout
        data = json.load(open(out))
        assert any(e["ph"] == "X" for e in data["traceEvents"])
        assert (tmp_path / "x.requests.jsonl").exists()

    def test_throughput_telemetry_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tp.json"
        code = main([
            "throughput", "--drive", "ultrastar", "--horizon", "1",
            "--telemetry", "--trace-out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "run telemetry" in stdout
        assert json.load(open(out))["traceEvents"]

    def test_detect_telemetry_merges_fleet(self, capsys):
        from repro.cli import main

        code = main([
            "detect", "--cylinders", "20", "--horizon", "1",
            "--algorithms", "sequential", "--telemetry",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fleet telemetry (2 runs, merged)" in stdout
        assert "device.completed" in stdout

    def test_detect_help_mentions_cache_bug(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "cache-bug interaction" in out
        assert "--no-drive-cache" in out
