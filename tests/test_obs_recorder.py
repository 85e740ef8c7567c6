"""The Recorder reads the device's request log.

Its request spans and request metrics are a pass over the
:class:`~repro.sched.device.RequestLog` the device hands it, run when
the recording is read; nothing per request is kept twice.  Pinned here:

* ``repro trace``'s Chrome trace, metrics snapshot and JSONL logs are
  the bytes recorded in ``tests/fixtures/trace_golden.json`` while the
  recorder still copied every request into a table of its own;
* a metric exists only once it has counted something (the fixture's
  key sets for a run with no request and one that only hits the cache);
* a recorder that heard requests but was given no log refuses to be
  read rather than answer with an empty table, and one handed a second
  device's log refuses it;
* the two outputs the log pass changes on purpose: a command still on
  the drive when an undrained run stops is not counted, and a capped log
  caps the metrics with it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import repro.cli.trace as trace_cli
from repro.analysis.detection import shrunk_spec
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.analysis.throughput import standalone_scrub_throughput
from repro.cli import main
from repro.core import SequentialScrub
from repro.disk import DiskCommand, Drive
from repro.disk.models import PRESETS
from repro.obs.sink import Recorder
from repro.sched import BlockDevice, IORequest, NoopScheduler
from repro.sim import Simulation

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "trace_golden.json").read_text()
)
SPEC = shrunk_spec(PRESETS["ultrastar"](), cylinders=30)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _keys(snapshot):
    return {table: sorted(snapshot[table]) for table in GOLDEN["keys"]["no_requests"]}


def test_repro_trace_writes_the_recorded_bytes(tmp_path, monkeypatch):
    snapshots = []
    shown = trace_cli.print_telemetry

    def spy(snapshot=None, **kwargs):
        snapshots.append(snapshot)
        return shown(snapshot, **kwargs)

    monkeypatch.setattr(trace_cli, "print_telemetry", spy)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "generate", "--name", "MSRsrc11", "--duration", "5", "--seed", "1",
            "-o", "fg.csv",
        ]) == 0
        assert main([
            "trace", "--cylinders", "30", "--inject", "--trace", "fg.csv",
            "--horizon", "1", "-o", "t.json", "--jsonl", "p",
        ]) == 0
    (snapshot,) = snapshots
    for wall in ("engine.wall_seconds", "engine.events_per_wall_second"):
        del snapshot["gauges"][wall]
    assert {
        "chrome_trace": _sha((tmp_path / "t.json").read_bytes()),
        "metrics": _sha(json.dumps(snapshot, sort_keys=True).encode()),
        "requests_jsonl": _sha((tmp_path / "p.requests.jsonl").read_bytes()),
        "errors_jsonl": _sha((tmp_path / "p.errors.jsonl").read_bytes()),
    } == GOLDEN["sha256"]
    counters = snapshot["counters"]
    assert counters["device.media_errors"] > 0 and counters["faults.remap"] > 0


def test_a_run_without_requests_has_no_request_metrics():
    recorder = Recorder()
    ScrubStack(
        SPEC, None, idle_gate=0.010, cache_enabled=True, telemetry=recorder
    ).run(1.0)
    assert _keys(recorder.snapshot()) == GOLDEN["keys"]["no_requests"]


def test_a_run_of_cache_hits_has_no_seek_histograms():
    recorder = Recorder()
    sim = Simulation(telemetry=recorder)
    drive = Drive(SPEC, cache_enabled=True)
    drive.service(DiskCommand.read(0, 64), 0.0)  # warm the cache, unheard
    device = BlockDevice(sim, drive, NoopScheduler())
    for lbn in range(0, 64, 8):
        device.submit(IORequest(DiskCommand.read(lbn, 8)))
    sim.run()
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["drive.cache_hits"] == 8
    assert _keys(snapshot) == GOLDEN["keys"]["all_cache_hits"]


def test_a_recorder_without_its_log_refuses_to_be_read():
    # A device hands its sink the log when it is built, so the hooks of
    # a recorder that never got one are driven by hand.
    sim = Simulation()
    device = BlockDevice(sim, Drive(SPEC), NoopScheduler())
    request = IORequest(DiskCommand.read(0, 8))
    device.submit(request)
    sim.run()
    recorder = Recorder()
    recorder.request_queued(0.0, request)
    recorder.request_dispatched(request.dispatch_time, request)
    for read in (recorder.snapshot, recorder.chrome_events, recorder.export):
        with pytest.raises(RuntimeError, match="no request log"):
            read()
    recorder.attach_log(device.log)
    assert recorder.snapshot()["counters"]["device.completed"] == 1


def test_a_recorder_reads_one_device():
    # Two devices on one simulation would each hand the recorder their
    # log; it refuses the second rather than read one of the two.
    sim = Simulation(telemetry=Recorder())
    BlockDevice(sim, Drive(SPEC), NoopScheduler())
    with pytest.raises(ValueError, match="one device"):
        BlockDevice(sim, Drive(SPEC), NoopScheduler())


def test_an_undrained_run_counts_the_drive_commands_it_logged():
    # The horizon stops the run with a VERIFY on the drive: it was
    # dispatched, never completed, and is in neither table.
    recorder = Recorder()
    standalone_scrub_throughput(
        SPEC, SequentialScrub(), horizon=0.5, telemetry=recorder
    )
    counters = recorder.snapshot()["counters"]
    assert counters["device.dispatched"] == counters["device.completed"] + 1
    assert counters["drive.commands"] == counters["device.completed"]


def test_a_capped_log_caps_the_request_metrics():
    recorder = Recorder()
    stack = ScrubStack(
        SPEC, ScrubberSetup("sequential"), idle_gate=0.010,
        cache_enabled=False, telemetry=recorder, max_log_records=64,
    )
    stack.run(1.0, drain=True)
    assert stack.device.log.dropped > 0
    snapshot = recorder.snapshot()
    kept = stack.device.log.requests()
    assert snapshot["counters"]["device.completed"] == 64
    assert snapshot["counters"]["device.submitted"] == 64 + stack.device.log.dropped
    assert snapshot["histograms"]["device.service_time_s"]["max"] == max(
        r.complete_time - r.dispatch_time for r in kept
    )
    assert len(recorder.progress_samples) == 64
