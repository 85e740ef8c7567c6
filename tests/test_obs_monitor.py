"""Tests for the campaign monitor (PR 8).

Two contracts dominate:

* **passivity** — a campaign run with a monitor attached produces
  bit-identical metrics and telemetry to a bare run, serial or
  supervised-parallel, fresh or resumed;
* **monotone durable progress** — the ``progress`` field counts only
  checkpoint-durable shards, so it never decreases across a kill +
  resume, while ``progress_live`` may.

Plus the operator surfaces themselves: the status schema, the
append-only event log (the only file the monitor writes),
utilization/straggler math, and the summary and spans folded from the
log.
"""

import gc
import json
import os
import warnings

import pytest

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import STATUS_VERSION, CampaignMonitor
from repro.obs.report import load_obs_dir
from repro.parallel import RetryPolicy


class _FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def _spec(groups=48, shards=4, seed=11):
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=4,
            mttr_hours=24.0,
            spare_delay_hours=6.0,
            classes=(
                DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=60.0,
            ),
        ),
        mission_years=5.0,
        seed=seed,
        shards=shards,
    )


#: Monitors driven by hand, closed at the end of their test as
#: ``CampaignRunner.run`` closes the monitor of a campaign.
_OPEN = []


@pytest.fixture(autouse=True)
def _close_monitors():
    yield
    while _OPEN:
        _OPEN.pop().close()


def _monitor(tmp_path, **kwargs):
    kwargs.setdefault("interval", 0.0)
    monitor = CampaignMonitor(str(tmp_path), **kwargs)
    _OPEN.append(monitor)
    return monitor


def _unclosed_files(action):
    """Unclosed-file warnings from ``action()`` and a collection after it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0, jitter=0.0)

_RANGES = [(0, 10), (10, 10), (20, 10), (30, 10)]


def _started(monitor, workers=2, ranges=_RANGES):
    monitor.campaign_started(
        digest="d" * 64,
        shard_ranges=ranges,
        workers=workers,
        mission_years=5.0,
    )


class TestLifecycleUnit:
    """Monitor driven by hand with a fake clock — no campaign."""

    def test_status_schema(self, tmp_path):
        clock = _FakeClock()
        monitor = _monitor(tmp_path, clock=clock, wall_clock=lambda: 7.0)
        _started(monitor)
        status = monitor.status()
        assert not (tmp_path / "status.json").exists()  # never written
        assert status["version"] == STATUS_VERSION
        assert status["state"] == "running"
        assert status["progress"] == 0.0
        assert status["shards"]["total"] == 4
        assert status["groups"] == {"total": 40, "done": 0}
        assert status["workers"]["configured"] == 2
        assert status["updated_unix"] == 7.0
        assert len(status["per_shard"]) == 4
        assert status["supervision"]["attempts"] == 0

    def test_durable_vs_live_progress(self, tmp_path):
        clock = _FakeClock()
        monitor = _monitor(tmp_path, clock=clock)
        _started(monitor)
        monitor.shard_started(0, attempt=1)
        monitor.shard_heartbeat(0, 1, {"done": 10, "total": 20, "rss_kb": 9000})
        # Half of one of four equal shards is live-visible but not durable.
        assert monitor.fold.progress() == 0.0
        assert monitor.fold.live_progress() == pytest.approx(0.125)
        clock.tick(1.0)
        monitor.shard_completed(0, {"group_count": 10}, attempt=1)
        assert monitor.fold.progress() == pytest.approx(0.25)
        assert monitor.fold.live_progress() == pytest.approx(0.25)

    def test_heartbeat_tracks_rss_and_never_regresses_done(self, tmp_path):
        monitor = _monitor(tmp_path, clock=_FakeClock())
        _started(monitor)
        monitor.shard_started(2, attempt=1)
        monitor.shard_heartbeat(2, 1, {"done": 8, "total": 20, "rss_kb": 5000})
        monitor.shard_heartbeat(2, 1, {"done": 6, "total": 20, "rss_kb": 4000})
        row = monitor.status()["per_shard"][2]
        assert row["progress"] == pytest.approx(0.4)  # max(8, 6) / 20
        assert row["peak_rss_kb"] == 5000

    def test_failure_kinds_map_to_counters(self, tmp_path):
        clock = _FakeClock()
        monitor = _monitor(tmp_path, clock=clock)
        _started(monitor)
        for attempt, kind in enumerate(("timeout", "stall", "death"), start=1):
            monitor.shard_started(1, attempt=attempt)
            clock.tick(0.5)
            monitor.shard_attempt_failed(1, attempt, kind, "boom", 0.5)
        counts = monitor.status()["supervision"]
        assert counts["timeouts"] == 1
        assert counts["stalls"] == 1
        assert counts["worker_deaths"] == 1
        assert counts["attempts"] == 3
        assert counts["retries"] == 2

    def test_utilization_counts_busy_and_running_time(self, tmp_path):
        clock = _FakeClock()
        monitor = _monitor(tmp_path, clock=clock, wall_clock=lambda: 0.0)
        _started(monitor, workers=2)
        monitor.shard_started(0, attempt=1)
        monitor.shard_started(1, attempt=1)
        clock.tick(4.0)
        # Two workers both busy for the whole elapsed window.
        assert monitor.status()["workers"]["utilization"] == pytest.approx(1.0)
        monitor.shard_completed(0, {"group_count": 10})
        monitor.shard_completed(1, {"group_count": 10})
        clock.tick(4.0)
        # ...then idle for as long again.
        assert monitor.status()["workers"]["utilization"] == pytest.approx(0.5)

    def test_stragglers_lag_behind_median(self, tmp_path):
        clock = _FakeClock()
        monitor = _monitor(tmp_path, clock=clock)
        _started(monitor, workers=4)
        for index in (0, 1, 2):
            monitor.shard_started(index, attempt=1)
        clock.tick(1.0)
        monitor.shard_completed(0, {"group_count": 10})
        monitor.shard_completed(1, {"group_count": 10})
        clock.tick(5.0)
        (lagger,) = monitor.status()["stragglers"]
        assert lagger["shard"] == 2
        assert lagger["lag_s"] == pytest.approx(5.0)
        assert "straggling" in monitor.progress_line()

    def test_speculative_attempt_span_does_not_collide(self, tmp_path):
        monitor = _monitor(tmp_path, clock=_FakeClock())
        _started(monitor)
        monitor.shard_started(0, attempt=1)
        monitor.shard_started(0, attempt=1, speculative=True)
        monitor.shard_completed(0, {"group_count": 10}, attempt=1)
        assert monitor.status()["supervision"]["speculated"] == 1
        # The primary attempt span closed; the speculative twin stayed
        # open under its own ID (exported as-if-ended-now).
        closed = [s.name for s in monitor.fold.spans()[1] if "outcome" in s.args]
        assert "shard 0 attempt 1" in closed
        assert "shard 0 attempt 1 (speculative)" not in closed

    def test_events_jsonl_appends_across_monitors(self, tmp_path):
        first = _monitor(tmp_path, clock=_FakeClock())
        _started(first)
        first.shard_completed(0, {"group_count": 10})
        second = _monitor(tmp_path, clock=_FakeClock())
        _started(second)
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events].count("campaign_started") == 2

    def test_unwritable_dir_degrades_not_raises(self, tmp_path):
        obs = tmp_path / "obs"
        monitor = _monitor(obs, clock=_FakeClock())
        # Take the output directory away before the first event, for
        # good: a file where it should be (chmod tricks don't bite when
        # tests run as root).  Every write, the directory's creation
        # included, must degrade to an io_errors count, never raise.
        obs.write_text("not a directory")
        _started(monitor)
        monitor.shard_started(0, attempt=1)
        monitor.shard_completed(0, {"group_count": 10})
        monitor.campaign_finished(CampaignRunner(_spec(shards=1)).run())
        assert monitor.io_errors == 4  # one a lifecycle event
        assert monitor.fold.progress() == pytest.approx(0.25)
        assert monitor.status()["state"] == "done"
        assert obs.read_text() == "not a directory"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_event_write_closes_its_handle(self, tmp_path):
        # events.jsonl on a full disk: the open succeeds, the flush fails.
        os.symlink("/dev/full", tmp_path / "events.jsonl")

        def run():
            monitor = CampaignMonitor(str(tmp_path), interval=0.0)
            _started(monitor)
            monitor.shard_started(0, attempt=1)
            assert monitor.io_errors == 2

        assert _unclosed_files(run) == []

    def test_progress_callback_failure_is_swallowed(self, tmp_path):
        def boom(line):
            raise RuntimeError("operator display died")

        monitor = _monitor(tmp_path, clock=_FakeClock(), on_progress=boom)
        _started(monitor)
        monitor.shard_completed(0, {"group_count": 10})


class TestCampaignIntegration:
    """Monitor attached to real campaigns."""

    def test_monitored_serial_campaign_is_passive(self, tmp_path):
        spec = _spec()
        bare = CampaignRunner(spec).run()
        monitored = CampaignRunner(
            spec, monitor=CampaignMonitor(str(tmp_path / "obs"), interval=0.0)
        ).run()
        assert monitored.metrics_dict() == bare.metrics_dict()
        assert monitored.telemetry == bare.telemetry

    def test_monitored_parallel_equals_serial_totals(self, tmp_path):
        spec = _spec()
        serial = CampaignRunner(
            spec, monitor=CampaignMonitor(str(tmp_path / "s"), interval=0.0)
        ).run()
        parallel = CampaignRunner(
            spec,
            workers=3,
            retry=_FAST,
            monitor=CampaignMonitor(str(tmp_path / "p"), interval=0.0),
        ).run()
        assert parallel.metrics_dict() == serial.metrics_dict()
        assert parallel.telemetry == serial.telemetry

    def test_final_status_and_summary(self, tmp_path):
        spec = _spec()
        obs = tmp_path / "obs"
        monitor = CampaignMonitor(str(obs), interval=0.0)
        CampaignRunner(spec, monitor=monitor).run()
        data = load_obs_dir(str(obs))
        status = data["status"]
        assert status["state"] == "done"
        assert status["progress"] == 1.0
        assert status["progress"] <= status["progress_live"]
        assert status["shards"]["done"] == spec.shards
        assert len(status["per_shard"]) == spec.shards
        assert all(row["state"] == "done" for row in status["per_shard"])
        assert status["final"]["completeness"] == 1.0
        assert [p["name"] for p in status["final"]["policies"]] == [
            "weekly", "staggered",
        ]
        assert status["throughput"]["drive_years"] > 0
        summary = data["summary"]
        assert summary["state"] == "done"
        assert len(summary["shard_durations_s"]) == spec.shards
        # Per-policy kernel phases were folded into the summary.
        assert {p["name"] for p in summary["phases"]} == {
            "policy weekly", "policy staggered",
        }
        trace = monitor.fold.chrome_events()
        spans = [e for e in trace if e.get("ph") == "X"]
        assert len(spans) >= spec.shards
        assert all(len(e["args"]["span_id"]) == 16 for e in spans)
        phases = [e for e in spans if e.get("cat") == "phase"]
        assert len(phases) == spec.shards * 2  # two policies per shard

    def test_monitor_merged_telemetry_matches_campaign(self, tmp_path):
        spec = _spec()
        monitor = CampaignMonitor(str(tmp_path / "obs"), interval=0.0)
        result = CampaignRunner(spec, monitor=monitor).run()
        summary = load_obs_dir(str(tmp_path / "obs"))["summary"]
        assert summary["telemetry"] == json.loads(json.dumps(result.telemetry))
        assert monitor.status()["counters"] == result.telemetry["counters"]

    def test_resume_keeps_progress_monotone(self, tmp_path):
        spec = _spec()
        journal = str(tmp_path / "journal")
        obs = tmp_path / "obs"

        class _Interrupt(Exception):
            pass

        def bail(shard_index, result):
            if shard_index == 1:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            CampaignRunner(
                spec,
                journal_dir=journal,
                on_shard=bail,
                monitor=CampaignMonitor(str(obs), interval=0.0),
            ).run()
        resumed = CampaignRunner(
            spec,
            journal_dir=journal,
            monitor=CampaignMonitor(str(obs), interval=0.0),
        ).run()
        assert resumed.shards_resumed >= 1
        events = [
            json.loads(line)
            for line in (obs / "events.jsonl").read_text().splitlines()
        ]
        progress = [e["progress"] for e in events if "progress" in e]
        assert progress, "no progress events logged"
        assert progress == sorted(progress)  # monotone across the kill
        assert progress[-1] == 1.0
        baseline = CampaignRunner(spec).run()
        assert resumed.metrics_dict() == baseline.metrics_dict()

    def test_a_campaign_that_raises_closes_its_monitor(self, tmp_path):
        def bail(shard_index, result):
            raise KeyboardInterrupt

        def run():
            with pytest.raises(KeyboardInterrupt):
                CampaignRunner(
                    _spec(), on_shard=bail,
                    monitor=CampaignMonitor(str(tmp_path), interval=0.0),
                ).run()

        assert _unclosed_files(run) == []
        events = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [json.loads(line)["event"] for line in events] == [
            "campaign_started", "attempt_started",
        ]

    def test_degraded_campaign_reports_failed_state(self, tmp_path):
        from repro.fleet import fleet_shard_task

        def fail_shard(**params):
            if params["shard_index"] == 2:
                raise ValueError("shard rejected")
            return fleet_shard_task(**params)

        obs = tmp_path / "obs"
        result = CampaignRunner(
            _spec(),
            workers=2,
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.0, backoff_max=0.0, jitter=0.0
            ),
            task=fail_shard,
            monitor=CampaignMonitor(str(obs), interval=0.0),
        ).run()
        assert result.shards_failed == 1
        status = load_obs_dir(str(obs))["status"]
        assert status["state"] == "degraded"
        assert status["shards"]["failed"] == 1
        assert status["per_shard"][2]["state"] == "failed"
        assert status["per_shard"][2]["error"]
