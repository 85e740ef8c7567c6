"""The golden monitored campaign: every lifecycle call on fake clocks.

:func:`drive` walks a :class:`~repro.obs.monitor.CampaignMonitor`
through a scripted five-shard campaign -- a resumed shard, a timed-out
attempt and its retry, a speculative twin left open, a worker death
that fails a shard, heartbeats with and without a payload -- on a fake
monotonic clock whose wall clock is a fixed offset from it, so every
timestamp is an exact binary fraction.  Shard results are the fleet
kernel's own, with fixed phase timings; the final result is the real
campaign's, with the run's accounting written over it.

``tests/fixtures/obs_golden/`` holds the ``status.json``,
``summary.json`` and ``trace.json`` a monitor that wrote those files
left after this drive; ``tests/test_obs_fold.py`` folds the event log
of the same drive and compares.  Regenerate nothing: the fixtures are
the oracle.
"""

from types import SimpleNamespace

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
    fleet_shard_task,
)
from repro.fleet.spec import campaign_digest
from repro.obs.monitor import CampaignMonitor

WALL_OFFSET = 1_700_000_000.0

#: Fixed per-policy phase timings, binary fractions.
PHASES = {"weekly": 0.25, "staggered": 0.125}


class Clock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def wall(self):
        return WALL_OFFSET + self.now


def spec():
    return CampaignSpec(
        fleet=FleetSpec(
            groups=40,
            disks_per_group=4,
            classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered", latent_window_hours=60.0
            ),
        ),
        mission_years=5.0,
        seed=3,
        shards=5,
    )


def _shard_results(campaign):
    results = []
    for params in CampaignRunner.shard_param_sets(campaign):
        result = fleet_shard_task(**params)
        result["phases"] = [
            {"policy": phase["policy"], "wall_s": PHASES[phase["policy"]]}
            for phase in result["phases"]
        ]
        results.append(result)
    return results


def _final(campaign):
    real = CampaignRunner(campaign).run()
    return SimpleNamespace(
        completeness=real.completeness,
        shards_total=5,
        shards_completed=4,
        shards_resumed=1,
        shards_failed=1,
        failed_shards=[3],
        supervision={
            "attempts": 7, "retries": 1, "timeouts": 1, "worker_deaths": 1,
            "stalls": 0, "speculated": 1, "peak_rss_kb": 12000,
        },
        policies=real.policies,
        telemetry=real.telemetry,
    )


def drive(out_dir, clock=None):
    """Run the script; yield the monitor after every lifecycle call."""
    clock = clock or Clock()
    campaign = spec()
    results = _shard_results(campaign)
    final = _final(campaign)
    monitor = CampaignMonitor(
        str(out_dir), interval=0.0, clock=clock, wall_clock=clock.wall
    )
    monitor.campaign_started(
        digest=campaign_digest(campaign),
        shard_ranges=campaign.shard_ranges(),
        workers=2,
        mission_years=campaign.mission_years,
    )
    yield monitor
    monitor.shard_resumed(0, results[0])
    yield monitor
    clock.now += 0.5
    monitor.shard_started(1, attempt=1)
    yield monitor
    clock.now += 0.25
    monitor.shard_started(2, attempt=1)
    yield monitor
    clock.now += 0.5
    monitor.shard_heartbeat(1, 1, {"done": 3, "total": 8, "rss_kb": 9000})
    yield monitor
    clock.now += 0.125
    monitor.shard_heartbeat(2, 1, None)
    yield monitor
    clock.now += 1.0
    monitor.shard_attempt_failed(1, 1, "timeout", "deadline", 1.75)
    yield monitor
    clock.now += 0.125
    monitor.shard_started(1, attempt=2)
    yield monitor
    clock.now += 0.5
    monitor.shard_heartbeat(2, 1, {"done": 4, "total": 8, "rss_kb": 12000})
    yield monitor
    monitor.shard_heartbeat(2, 1, {"done": 2, "total": 8, "rss_kb": 11000})
    yield monitor
    monitor.shard_started(2, attempt=1, speculative=True)
    yield monitor
    clock.now += 0.75
    monitor.shard_completed(2, results[2], attempt=1, duration=2.5)
    yield monitor
    clock.now += 0.25
    monitor.shard_completed(1, results[1], attempt=2)
    yield monitor
    monitor.shard_started(3, attempt=1)
    yield monitor
    clock.now += 0.5
    monitor.shard_attempt_failed(3, 1, "death", "worker died", 0.5)
    yield monitor
    monitor.shard_failed(3, "worker died")
    yield monitor
    monitor.shard_started(4, attempt=1)
    yield monitor
    clock.now += 0.375
    monitor.shard_completed(4, results[4], attempt=1, duration=0.375)
    yield monitor
    clock.now += 0.125
    monitor.campaign_finished(final)
    yield monitor
    monitor.close()
