"""The one Chrome-trace encoder (:func:`repro.obs.trace.encode_events`).

The simulation recorder and the campaign span recorder each used to
carry their own encoder.  Both are kept below, verbatim, as the golden
oracle: ``_reference_recorder_events`` (the recorder's flattening, fed
the 13-field request table the recorder kept before it read the
device's log, rebuilt from that log by ``_as_table``) and
``_reference_span_events`` (the span recorder's, now fed the spans the
campaign fold replays from an event log).  Each export through the one
encoder must hold the same events as its oracle, compared as a
multiset of canonical JSON lines (the one encoder writes metadata
first, then spans, instants and counters, where the old ones
interleaved them).  Inputs: a recorded fault-injected scrub run, a
hand-written log with every kind of span, a small campaign under a
monitor, and the golden campaign, whose span IDs must be the ones its
``trace.json`` fixture holds.

The last class is the ``ast`` contract that the old telemetry package
and its null sink stay deleted.
"""

import ast
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace
from typing import List

import pytest

from repro.analysis.detection import run_detection_experiment, shrunk_spec
from repro.disk.models import PRESETS
from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor
from repro.obs.report import CampaignFold, read_events
from repro.obs.sink import Recorder
from repro.obs.spans import Span
from repro.obs.trace import write_chrome_trace
from tests.obs_golden import drive
from tools.surface import readme_blocks

ROOT = Path(__file__).resolve().parent.parent

_US = 1e6


def _reference_recorder_events(recorder, process_name: str = "sim") -> List[dict]:
    """Flatten one recorder into a list of Chrome trace-event dicts on
    process id 0 (:func:`with_pid` re-homes them)."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    tids = {}

    def tid_of(source: str) -> int:
        tid = tids.get(source)
        if tid is None:
            tid = tids[source] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": source},
                }
            )
        return tid

    for (
        submit,
        dispatch,
        complete,
        opcode,
        lbn,
        sectors,
        priority,
        source,
        seek,
        rotation,
        transfer,
        cache_hit,
        status,
    ) in recorder.requests:
        tid = tid_of(source)
        args = {
            "lbn": lbn,
            "sectors": sectors,
            "priority": priority,
            "source": source,
        }
        events.append(
            {
                "name": f"wait {opcode}",
                "cat": "queue",
                "ph": "X",
                "ts": submit * _US,
                "dur": (dispatch - submit) * _US,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
        events.append(
            {
                "name": opcode,
                "cat": "service",
                "ph": "X",
                "ts": dispatch * _US,
                "dur": (complete - dispatch) * _US,
                "pid": 0,
                "tid": tid,
                "args": {
                    **args,
                    "seek_s": seek,
                    "rotation_s": rotation,
                    "transfer_s": transfer,
                    "cache_hit": cache_hit,
                    "status": status,
                },
            }
        )

    for ts, category, name, args in recorder.instants:
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "p",
                "ts": ts * _US,
                "pid": 0,
                "tid": 0,
                "args": args or {},
            }
        )

    for ts, source, fraction in recorder.progress_samples:
        events.append(
            {
                "name": f"scrub progress ({source})",
                "ph": "C",
                "ts": ts * _US,
                "pid": 0,
                "args": {"fraction": round(fraction, 6)},
            }
        )
    return events


def _reference_span_events(self, process_name: str = "campaign") -> List[dict]:
    """Flatten to Chrome trace-event dicts on process id 0 (feed
    ``write_chrome_trace``).

    Any still-open spans are exported as if they ended now, so a
    trace written mid-campaign (or after a crash) is still valid.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid, name in sorted(self._thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
        )
    now = self._now() if self._epoch is not None else 0.0
    live = [
        Span(s.sid, s.name, s.category, s.tid, s.start, s.args)
        for s in self._open.values()
    ]
    for span in live:
        span.end = now
    for span in list(self._closed) + live:
        if span.end == span.start and span.sid == 0:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "i",
                    "s": "t",
                    "ts": span.start * _US,
                    "pid": 0,
                    "tid": span.tid,
                    "args": span.args,
                }
            )
            continue
        args = dict(span.args)
        args["span_id"] = f"{span.sid:016x}"
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": 0,
                "tid": span.tid,
                "args": args,
            }
        )
    return events


def _as_table(recorder):
    """What the oracle reads: the request table as the recorder once
    copied it, a tuple per completed request, rebuilt from the log the
    recorder reads now; its instants and progress samples as they are."""
    requests = [
        (
            r.submit_time, r.dispatch_time, r.complete_time,
            r.command.opcode.value, r.command.lbn, r.command.sectors,
            r.priority.name, r.source, r.breakdown.seek, r.breakdown.rotation,
            r.breakdown.transfer, r.breakdown.cache_hit, r.breakdown.status.name,
        )
        for r in (recorder.log.requests() if recorder.log is not None else [])
    ]
    return SimpleNamespace(
        requests=requests, instants=recorder.instants,
        progress_samples=recorder.progress_samples,
    )


def _lines(events):
    """``events`` as a sorted multiset of canonical JSON lines."""
    return sorted(json.dumps(event, sort_keys=True) for event in events)


class _Clock:
    """A monotonic clock that ticks ``step`` seconds a read (0 freezes it)."""

    def __init__(self, step=0.001):
        self.now = 100.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


#: ``sha256`` of the sorted-key JSON metrics snapshot of :func:`_recorded`,
#: as the encoders' parent commit computes it.
_RECORDED_METRICS = "296c52efec33463ed6c6d617b63211e74a952b6895c07ab7a3c9208de0db19be"


def _recorded():
    """A fault-injected Waiting scrub run with a foreground reader."""
    recorder = Recorder()
    run_detection_experiment(
        shrunk_spec(PRESETS["ultrastar"](), cylinders=30), algorithm="waiting",
        horizon=1.0, seed=3, foreground=True, telemetry=recorder,
        model_params=dict(inter_burst_mean=0.5, in_burst_time_mean=0.01),
    )
    return recorder


class TestTheRecorderEncodesAsBefore:
    def test_a_fault_injected_run(self):
        recorder = _recorded()
        kinds = {name for _, _, name, _ in recorder.instants}
        assert {"pass_started", "scrub_detection", "remap"} <= kinds
        assert recorder.progress_samples
        events = recorder.chrome_events(process_name="ultrastar:waiting")
        assert _lines(events) == _lines(
            _reference_recorder_events(
                _as_table(recorder), process_name="ultrastar:waiting"
            )
        )
        assert {e["s"] for e in events if e["ph"] == "i"} == {"p"}

    def test_the_export_bundle(self):
        recorder = _recorded()
        bundle = recorder.export()
        assert _lines(bundle["events"]) == _lines(
            _reference_recorder_events(_as_table(recorder))
        )
        snapshot = json.dumps(bundle["metrics"], sort_keys=True).encode()
        assert hashlib.sha256(snapshot).hexdigest() == _RECORDED_METRICS

    def test_an_empty_recording(self):
        recorder = Recorder()
        assert recorder.chrome_events() == _reference_recorder_events(
            _as_table(recorder)
        )


def _as_recorder(fold):
    """The fold's spans in the shape the oracle reads: every span
    closed (the fold ends the open ones at its last record)."""
    threads, spans = fold.spans()
    return SimpleNamespace(
        _thread_names=threads, _open={}, _closed=spans,
        _epoch=fold.started, _now=lambda: 0.0,
    )


def _folded(*records):
    """Fold ``(mono, event, fields)`` records."""
    fold = CampaignFold()
    for mono, event, fields in records:
        fold.add(dict(fields, t=mono, mono=mono, event=event))
    return fold


class TestTheSpanRecorderEncodesAsBefore:
    def test_every_kind_of_span_on_a_fake_clock(self):
        fold = _folded(
            (100.0, "campaign_started", {
                "campaign": "digest", "shards": 2, "groups": 20,
                "shard_groups": [10, 10],
            }),
            (100.5, "attempt_started", {"shard": 1, "attempt": 1}),
            (100.75, "attempt_failed", {
                "shard": 1, "attempt": 1, "kind": "timeout", "error": "late",
            }),
            (100.75, "attempt_started", {"shard": 1, "attempt": 2}),
            (101.0, "shard_completed", {
                "shard": 1, "attempt": 2, "groups": 10,
                "phases": [{"policy": "weekly", "wall_s": 0.2},
                           {"policy": "idle", "wall_s": 0.0}],
            }),
            (101.0, "attempt_started", {
                "shard": 0, "attempt": 1, "speculative": True,
            }),
            (102.0, "heartbeat", {"shard": 0, "done": 1, "total": 4}),
        )  # the campaign and shard 0's attempt stay open
        events = fold.chrome_events()
        assert _lines(events) == _lines(_reference_span_events(_as_recorder(fold)))
        assert sorted(e["ph"] for e in events) == ["M"] * 4 + ["X"] * 6 + ["i"]
        assert {e["s"] for e in events if e["ph"] == "i"} == {"t"}

    def test_before_any_span(self):
        fold = CampaignFold()
        assert fold.chrome_events() == _reference_span_events(_as_recorder(fold))

    def test_a_monitored_campaign(self, tmp_path):
        spec = CampaignSpec(
            fleet=FleetSpec(
                groups=24, disks_per_group=4,
                classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
            ),
            policies=(
                ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
                ScrubPolicySpec(
                    name="staggered", algorithm="staggered", latent_window_hours=60.0
                ),
            ),
            mission_years=3.0, seed=5, shards=3,
        )
        monitor = CampaignMonitor(str(tmp_path / "obs"), interval=0, clock=_Clock())
        CampaignRunner(spec, monitor=monitor).run()
        fold = CampaignFold(read_events(monitor.events_path))
        events = fold.chrome_events()
        assert _lines(events) == _lines(_reference_span_events(_as_recorder(fold)))
        assert {e["cat"] for e in events if e["ph"] == "X"} == {
            "campaign", "attempt", "phase",
        }
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), events)
        with open(path) as handle:
            written = json.load(handle)["traceEvents"]
        assert len(written) == len(events)

    def test_the_golden_campaign_keeps_its_span_ids(self, tmp_path):
        for _ in drive(tmp_path):
            pass
        fold = CampaignFold(read_events(str(tmp_path / "events.jsonl")))
        fixture = ROOT / "tests" / "fixtures" / "obs_golden" / "trace.json"
        want = json.loads(fixture.read_text())["traceEvents"]
        got = _reference_span_events(_as_recorder(fold))

        def ids(events):
            return sorted(
                (e["name"], e["tid"], e["args"]["span_id"])
                for e in events if e["ph"] == "X"
            )

        assert ids(got) == ids(want)
        assert len(ids(want)) == 13


#: What went with the fold of the old telemetry package into ``repro.obs``.
GONE = {"NullSink", "NULL_SINK"}


def _telemetry_uses(tree):
    """Where ``tree`` imports the old telemetry package or names its null sink."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                f"import {alias.name}" for alias in node.names
                if alias.name.split(".")[:2] == ["repro", "telemetry"]
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[:2] == ["repro", "telemetry"] or (
                module == "repro"
                and any(alias.name == "telemetry" for alias in node.names)
            ):
                found.append(f"from {module} import")
            found += [
                f"import {alias.name}" for alias in node.names
                if {alias.name, alias.asname} & GONE
            ]
        elif isinstance(node, ast.Name) and node.id in GONE:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append(node.attr)
    return found


class TestTheTelemetryPackageStaysDeleted:
    def test_the_package_is_gone(self):
        assert not (ROOT / "src" / "repro" / "telemetry").exists()

    def test_nothing_imports_it_or_names_the_null_sink(self):
        sources = {}
        for folder in ("src", "tests", "tools", "benchmarks", "examples"):
            for path in sorted((ROOT / folder).rglob("*.py")):
                sources[path.relative_to(ROOT).as_posix()] = path.read_text()
        for index, block in enumerate(readme_blocks(str(ROOT / "README.md"))):
            sources[f"README.md block {index}"] = block
        assert len(sources) > 150
        uses = {
            name: found
            for name, source in sources.items()
            if (found := _telemetry_uses(ast.parse(source)))
        }
        assert uses == {}

    @pytest.mark.parametrize("source, count", [
        ("from repro.telemetry import Recorder", 1),
        ("from repro.telemetry.metrics import MetricsRegistry", 1),
        ("import repro.telemetry.sink", 1),
        ("from repro import telemetry", 1),
        ("sim = Simulation(telemetry=NULL_SINK)", 1),
        ("class Quiet(sink.NullSink): pass", 1),
        ("from repro.obs.sink import Recorder", 0),
        ("sim = Simulation(telemetry=None)", 0),
        ('"""NULL_SINK was the disabled sink."""', 0),
    ])
    def test_the_walk_sees_what_it_should(self, source, count):
        assert len(_telemetry_uses(ast.parse(source))) == count


def test_the_package_reexports_nothing():
    import repro.obs

    public = {name for name in vars(repro.obs) if not name.startswith("_")}
    assert public <= {
        "export", "metrics", "monitor", "prometheus", "report", "sink",
        "spans", "trace", "worker",
    }
