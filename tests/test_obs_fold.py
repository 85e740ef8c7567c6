"""The one fold of ``events.jsonl``: status, summary and spans.

* **golden** -- the golden drive (``tests/obs_golden.py``) folds to the
  ``status.json``, ``summary.json`` and ``trace.json`` the monitor wrote
  when it still wrote them (``tests/fixtures/obs_golden/``), on every
  key but the wall-clock stamps; the one intended difference is that a
  kernel phase now sits inside its attempt on the trace's time axis,
  where the old trace placed it ``epoch`` seconds later;
* **prefix** -- the log cut after any record folds to the status the
  live monitor answered right after appending that record;
* **resume** -- a log the monitor of a resumed run appended to folds to
  the last run only;
* **passivity** -- the monitor writes nothing but ``events.jsonl``.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor
from repro.obs.report import CampaignFold, load_obs_dir, read_events
from tests.obs_golden import Clock, drive

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "obs_golden"

#: Wall-clock stamps the golden comparison leaves out.
WALL_KEYS = {"updated_unix", "generated_unix"}

#: Where the golden clock starts: the old trace's phase-span offset.
EPOCH_US = Clock().now * 1e6


def _fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _without(payload, keys):
    return {key: value for key, value in payload.items() if key not in keys}


def _json(payload):
    """``payload`` as the file the monitor wrote would read back."""
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    obs = tmp_path_factory.mktemp("golden")
    for _ in drive(obs):
        pass
    return obs


class TestGolden:
    def test_status(self, golden):
        status = load_obs_dir(str(golden))["status"]
        assert _without(_json(status), WALL_KEYS) == _without(
            _fixture("status"), WALL_KEYS
        )
        assert status["state"] == "degraded"

    def test_summary(self, golden):
        summary = load_obs_dir(str(golden))["summary"]
        assert _without(_json(summary), WALL_KEYS) == _without(
            _fixture("summary"), WALL_KEYS
        )

    def test_trace(self, golden):
        fold = CampaignFold(read_events(str(golden / "events.jsonl")))
        want = _fixture("trace")["traceEvents"]
        for event in want:
            if event.get("cat") == "phase":
                event["ts"] -= EPOCH_US
        assert _json(fold.chrome_events()) == want

    def test_phases_sit_inside_their_attempts(self, golden):
        _, spans = CampaignFold(read_events(str(golden / "events.jsonl"))).spans()
        attempts = {
            (span.tid, span.args["attempt"]): span
            for span in spans
            if span.category == "attempt" and span.args.get("outcome") == "ok"
        }
        phases = [span for span in spans if span.category == "phase"]
        assert len(phases) == 2 * len(attempts) == 6
        for phase in phases:
            (attempt,) = [
                a for (tid, _), a in attempts.items() if tid == phase.tid
            ]
            assert attempt.start <= phase.start <= phase.end <= attempt.end

    def test_the_monitor_writes_only_its_log(self, golden):
        assert [path.name for path in golden.iterdir()] == ["events.jsonl"]


class TestPrefix:
    def test_every_cut_folds_to_the_live_status(self, tmp_path):
        log = tmp_path / "events.jsonl"
        cuts = []
        for monitor in drive(tmp_path):
            size = log.stat().st_size
            if cuts and size == cuts[-1]:
                continue  # a heartbeat with no payload appends nothing
            cuts.append(size)
            assert CampaignFold(read_events(str(log))).status() == monitor.status()
        assert len(cuts) == 18


def _spec(shards=4):
    return CampaignSpec(
        fleet=FleetSpec(
            groups=32,
            disks_per_group=4,
            classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
        ),
        policies=(ScrubPolicySpec(name="weekly", latent_window_hours=84.0),),
        mission_years=3.0,
        seed=9,
        shards=shards,
    )


class TestResume:
    def test_a_resumed_log_folds_to_the_last_run(self, tmp_path):
        spec, journal, obs = _spec(), tmp_path / "journal", tmp_path / "obs"

        class _Interrupt(Exception):
            pass

        def bail(shard_index, result):
            if shard_index == 2:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            CampaignRunner(
                spec, journal_dir=journal, on_shard=bail,
                monitor=CampaignMonitor(str(obs), interval=0.0),
            ).run()
        interrupted = load_obs_dir(str(obs))["status"]
        assert interrupted["state"] == "running"
        assert [row["state"] for row in interrupted["per_shard"]] == [
            "done", "done", "running", "pending",
        ]
        monitor = CampaignMonitor(str(obs), interval=0.0)
        CampaignRunner(spec, journal_dir=journal, monitor=monitor).run()
        data = load_obs_dir(str(obs))
        assert [e["event"] for e in data["events"]].count("campaign_started") == 2
        status = data["status"]
        assert [row["state"] for row in status["per_shard"]] == [
            "resumed", "resumed", "resumed", "done",
        ]
        assert status["supervision"]["attempts"] == 1
        assert data["summary"]["shard_durations_s"] == [
            status["per_shard"][3]["duration_s"]
        ]
        assert status == monitor.fold.status()
        # Only the last run's attempt is on the trace.
        _, spans = monitor.fold.spans()
        assert [s.name for s in spans if s.category == "attempt"] == [
            "shard 3 attempt 1",
        ]
