"""Fleet-campaign smoke: kill it, wedge it, resume it — bit-identically.

``make fleet-smoke`` runs this end to end.  Five acts — the first four
are acceptance criteria from PR 7, the fifth from PR 8:

1. **Baseline** — run a small campaign serially, record its metrics
   and journal-audit its checkpoints.
2. **SIGKILL the driver** — launch the same campaign as a child
   process, SIGKILL the *whole driver* once checkpoints start
   appearing, then resume in-process: the resumed run must skip every
   journalled shard (``shards_resumed`` > 0, all checkpoint hits) and
   finish bit-identical to the baseline.
3. **SIGKILL a worker** — run under supervision with a shard task that
   kills its own worker once; the campaign must retry it, book exactly
   one worker death and one attempt more than there are shards, replace
   that one worker only (``supervise.spawns == workers + 1``) and still
   match the baseline exactly.
4. **Wedge a worker** — a shard task that sleeps forever on every
   attempt must trip the hung-task deadline, exhaust its retries, and
   degrade the campaign to an explicit ``completeness < 1`` with every
   other shard's results intact.  Neither act may leave a worker
   process behind once ``CampaignRunner.run()`` has returned.
5. **Watch it die and come back** — run the campaign under a
   :class:`~repro.obs.CampaignMonitor`, interrupt it mid-flight, then
   resume with a *fresh* monitor on the same observability directory:
   the interrupted log must fold to a non-terminal status whose
   ``progress`` is the last durable ``progress`` it logged, the
   ``progress`` values in the continuous ``events.jsonl`` must be
   monotone non-decreasing across the interruption (durable progress
   only counts journalled shards), the log must fold to a final status
   at progress 1.0, and the resumed metrics must stay bit-identical
   to the baseline — monitoring is passive.

Everything is deterministic (fixed spec seed), so a failure here is
reproducible by rerunning the same command.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fleet import (  # noqa: E402
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
    fleet_shard_task,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.parallel import RetryPolicy  # noqa: E402
from repro.verify import check_campaign_journal  # noqa: E402


def make_spec() -> CampaignSpec:
    return CampaignSpec(
        fleet=FleetSpec(
            groups=240,
            disks_per_group=4,
            mttr_hours=36.0,
            spare_delay_hours=6.0,
            classes=(
                DriveClass(mttf_hours=2.5e4, lse_burst_rate_per_hour=3e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=62.0,
            ),
        ),
        mission_years=6.0,
        seed=13,
        shards=8,
    )


_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0, jitter=0.0)

#: Child-process entry: run the campaign with a journal, slowly enough
#: for the parent to observe checkpoints before SIGKILLing us.
_CHILD_SNIPPET = """
import sys, time
sys.path.insert(0, {src!r})
from tools.fleet_smoke import make_spec
from repro.fleet import CampaignRunner

def dawdle(shard_index, result):
    print(f"shard {{shard_index}} checkpointed", flush=True)
    time.sleep(0.2)

CampaignRunner(make_spec(), journal_dir={journal!r}, on_shard=dawdle).run()
print("UNEXPECTED: campaign finished before the kill", flush=True)
"""


def _kill_shard_once(sentinel_dir: str, **params):
    sentinel = os.path.join(sentinel_dir, f"shard-{params['shard_index']}")
    if params["shard_index"] == 3 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return fleet_shard_task(**params)


def _wedge_shard(**params):
    if params["shard_index"] == 5:
        time.sleep(3600.0)
    return fleet_shard_task(**params)


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def main() -> int:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = make_spec()
    failures = 0

    with tempfile.TemporaryDirectory() as tmp:
        print("act 1: baseline campaign")
        baseline_journal = os.path.join(tmp, "baseline")
        baseline = CampaignRunner(spec, journal_dir=baseline_journal).run()
        failures += not check(
            "campaign complete", baseline.completeness == 1.0
        )
        failures += not check(
            "losses observed", all(p.losses > 0 for p in baseline.policies),
            f"{[p.losses for p in baseline.policies]}",
        )
        verified = check_campaign_journal(baseline_journal, spec)
        failures += not check(
            "journal audit", verified == baseline.shards_total,
            f"{verified} checkpoints verified",
        )

        print("act 2: SIGKILL the driver mid-campaign, then resume")
        journal = os.path.join(tmp, "killed")
        child = subprocess.Popen(
            [sys.executable, "-c",
             _CHILD_SNIPPET.format(src=os.path.join(repo, "src"), journal=journal)],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH=os.path.join(repo, "src")),
            stdout=subprocess.PIPE,
            text=True,
        )
        checkpoints_seen = 0
        deadline = time.monotonic() + 120.0
        while checkpoints_seen < 3 and time.monotonic() < deadline:
            line = child.stdout.readline()
            if not line:
                break
            if "checkpointed" in line:
                checkpoints_seen += 1
        child.kill()  # SIGKILL: no cleanup, no atexit, mid-campaign
        child.wait()
        failures += not check(
            "driver killed after some checkpoints", 1 <= checkpoints_seen < 8,
            f"{checkpoints_seen} shards checkpointed before the kill",
        )
        resumed = CampaignRunner(spec, journal_dir=journal).run()
        failures += not check(
            "resume skipped journalled shards",
            resumed.shards_resumed >= checkpoints_seen > 0,
            f"{resumed.shards_resumed} resumed from checkpoints",
        )
        failures += not check(
            "resumed run bit-identical to baseline",
            resumed.metrics_dict() == baseline.metrics_dict(),
        )
        # The audit derives each shard's key from the spec: the resume
        # must have left a checkpoint under every one of them.
        verified = check_campaign_journal(journal, spec)
        failures += not check(
            "resumed journal names every shard",
            verified == resumed.shards_total,
            f"{verified}/{resumed.shards_total} checkpoints verified",
        )

        print("act 3: SIGKILLed shard worker is retried")
        sentinels = os.path.join(tmp, "sentinels")
        os.makedirs(sentinels)
        workers = 2
        metrics = MetricsRegistry()
        survived = CampaignRunner(
            spec,
            journal_dir=os.path.join(tmp, "worker-killed"),
            workers=workers,
            retry=_FAST,
            task=functools.partial(_kill_shard_once, sentinels),
            metrics=metrics,
        ).run()
        failures += not check(
            "worker death detected and retried",
            survived.supervision.get("worker_deaths", 0) == 1
            and survived.supervision.get("retries", 0) >= 1,
            f"supervision {survived.supervision}",
        )
        failures += not check(
            "only the killed shard was charged a second attempt",
            survived.supervision.get("attempts") == survived.shards_total + 1,
            f"{survived.supervision.get('attempts')} attempts for "
            f"{survived.shards_total} shards",
        )
        spawns = metrics.snapshot()["counters"].get("supervise.spawns")
        failures += not check(
            "only the dead worker was replaced",
            spawns == workers + 1,
            f"{spawns} worker processes forked for {workers} slots",
        )
        failures += not check(
            "no worker outlives the campaign",
            not multiprocessing.active_children(),
        )
        failures += not check(
            "post-retry campaign bit-identical to baseline",
            survived.metrics_dict() == baseline.metrics_dict(),
        )

        print("act 4: wedged worker degrades gracefully")
        degraded = CampaignRunner(
            spec,
            workers=2,
            task_timeout=5.0,
            heartbeat_interval=0.2,
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.0, backoff_max=0.0, jitter=0.0
            ),
            task=_wedge_shard,
        ).run()
        failures += not check(
            "no worker outlives the degraded campaign",
            not multiprocessing.active_children(),
        )
        failures += not check(
            "hung shard timed out and was abandoned",
            degraded.shards_failed == 1 and degraded.failed_shards == [5],
            f"failed shards {degraded.failed_shards}",
        )
        failures += not check(
            "completeness reported explicitly",
            0.0 < degraded.completeness < 1.0,
            f"completeness {degraded.completeness:.3f}",
        )
        expected_groups = spec.fleet.groups - spec.shard_ranges()[5][1]
        failures += not check(
            "surviving shards fully merged",
            all(p.groups == expected_groups for p in degraded.policies),
        )

        print("act 5: monitored campaign, interrupted and resumed")
        from repro.obs.monitor import CampaignMonitor
        from repro.obs.report import CampaignFold, read_events

        obs_dir = os.path.join(tmp, "obs")
        monitored_journal = os.path.join(tmp, "monitored")

        class _Interrupt(Exception):
            pass

        def interrupt_midway(shard_index, result):
            if shard_index == 3:
                raise _Interrupt  # stands in for ^C / SIGKILL

        try:
            CampaignRunner(
                spec,
                journal_dir=monitored_journal,
                on_shard=interrupt_midway,
                monitor=CampaignMonitor(obs_dir, interval=0.0),
            ).run()
            failures += not check("campaign was interrupted", False)
        except _Interrupt:
            pass
        events_path = os.path.join(obs_dir, "events.jsonl")
        events = read_events(events_path)
        status = CampaignFold(events).status()
        durable = [e["progress"] for e in events if "progress" in e]
        failures += not check(
            "interrupted log folds to its last durable progress",
            status["state"] == "running" and bool(durable)
            and status["progress"] == durable[-1],
            f"state {status['state']}, progress {status['progress']}, "
            f"last logged {durable[-1] if durable else '-'}",
        )
        resumed_monitored = CampaignRunner(
            spec,
            journal_dir=monitored_journal,
            monitor=CampaignMonitor(obs_dir, interval=0.0),
        ).run()
        failures += not check(
            "resume skipped monitored checkpoints",
            resumed_monitored.shards_resumed >= 1,
            f"{resumed_monitored.shards_resumed} resumed",
        )
        events = read_events(events_path)
        progress = [e["progress"] for e in events if "progress" in e]
        failures += not check(
            "progress monotone across interruption + resume",
            bool(progress) and progress == sorted(progress),
            f"{len(progress)} samples, "
            f"{progress[0] if progress else '-'} -> "
            f"{progress[-1] if progress else '-'}",
        )
        status = CampaignFold(events).status()
        failures += not check(
            "final status complete",
            status["state"] == "done" and status["progress"] == 1.0,
            f"state {status['state']}, progress {status['progress']}",
        )
        failures += not check(
            "monitored resume bit-identical to baseline",
            resumed_monitored.metrics_dict() == baseline.metrics_dict(),
        )

    print(json.dumps({"fleet_smoke_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
