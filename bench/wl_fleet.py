"""``fleet_campaign``: a RAID-5 fleet Monte-Carlo campaign, four ways.

Per repetition, the same seeded campaign runs (a) serially, journalled,
fresh; (b) as a full resume from (a)'s journal; (c) under
``SupervisedRunner`` with two worker processes and a fresh journal;
and, in the traced run, (d) serially with a ``CampaignMonitor``
attached.  All four must produce identical metrics, and each policy's
Monte-Carlo loss probability must agree with the closed-form RAID
reliability model.

The traced run also calls the layers under ``CampaignRunner.run``
one by one — shard parameter sets, the shard kernel, the conservation
checks, the journal — so that the campaign's wall splits into them
and a stated remainder.
"""

from __future__ import annotations

import os
import time

from harness import Measurement, Workload, canonical
from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.fleet.campaign import wilson_interval
from repro.fleet.journal import CampaignJournal
from repro.fleet.montecarlo import fleet_shard_task
from repro.obs.monitor import CampaignMonitor
from repro.parallel.supervise import SupervisedRunner
from repro.verify.fleet import check_fleet_conservation, check_shard_result

SHARDS = 16
#: The reference box has two cores; one worker would bypass
#: ``SupervisedRunner`` altogether.
WORKERS = 2
#: The closed form must sit inside this Wilson interval of the
#: Monte-Carlo estimate.  Wider than 95% so that the check holds for
#: every seed, not for nineteen in twenty.
CONFIDENCE = 0.9999


def campaign_spec(groups: int, seed: int, shards: int = SHARDS) -> CampaignSpec:
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=8,
            mttr_hours=24.0,
            spare_delay_hours=4.0,
            classes=(DriveClass(mttf_hours=1.0e5, lse_burst_rate_per_hour=1e-4),),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered", latent_window_hours=62.0
            ),
        ),
        mission_years=10.0,
        seed=seed,
        shards=shards,
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


class FleetCampaign(Workload):
    name = "fleet_campaign"
    groups = 4000
    quick_groups = 160

    def setup(self) -> None:
        self.spec = campaign_spec(
            self.quick_groups if self.quick else self.groups, self.seed
        )

    def _run(self, m, tracer, phase: str, **kwargs):
        """One campaign; returns it with ``(corrected, raw)`` seconds."""
        self.clock.mark()
        try:
            with tracer.span(f"fleet.campaign.{phase}"):
                result = CampaignRunner(self.spec, **kwargs).run()
        except Exception as exc:  # a campaign that raises is a failed operation
            m.check(False, f"phase {phase}: {exc!r}")
            return None, (0.0, 0.0)
        elapsed = self.clock.lap()
        m.check(
            result.shards_completed == SHARDS and not result.failed_shards,
            f"phase {phase}: {result.shards_completed}/{SHARDS} shards done",
        )
        return result, elapsed

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement()

        def rep(index: int) -> None:
            root = self.fresh_dir("fleet")
            journal = os.path.join(root, "journal")
            with tracer.span("fleet.rep", rep=index):
                fresh, fresh_s = self._run(m, tracer, "fresh", journal_dir=journal)
                resumed, resume_s = self._run(m, tracer, "resume", journal_dir=journal)
                parallel, parallel_s = self._run(
                    m, tracer, "parallel",
                    journal_dir=os.path.join(root, "journal-parallel"),
                    workers=WORKERS,
                )
                results = [fresh, resumed, parallel]
                if tracer.enabled:
                    obs = os.path.join(root, "obs")
                    monitored, monitored_s = self._run(
                        m, tracer, "monitored",
                        journal_dir=os.path.join(root, "journal-monitored"),
                        monitor=CampaignMonitor(obs, interval=0.25),
                    )
                    results.append(monitored)
                    if fresh_s[0]:
                        m.add("monitor_overhead", monitored_s[0] / fresh_s[0] - 1.0)
                    m.add(
                        "events_bytes",
                        os.path.getsize(os.path.join(obs, "events.jsonl")),
                    )
                    self._layers(m, tracer, root, fresh_s[1])
            if None in results:
                return
            metrics = fresh.metrics_dict()
            m.check(
                all(canonical(r.metrics_dict()) == canonical(metrics) for r in results),
                "campaign metrics differ between fresh/resume/parallel/monitored",
            )
            m.check(
                resumed.shards_resumed == SHARDS,
                f"resume recomputed shards: {resumed.shards_resumed}/{SHARDS} resumed",
            )
            for policy in fresh.policies:
                low, high = wilson_interval(policy.losses, policy.groups, CONFIDENCE)
                m.check(
                    low <= policy.closed_form_p_loss <= high,
                    f"policy {policy.name}: closed form {policy.closed_form_p_loss} "
                    f"outside MC interval ({low}, {high})",
                )
            drive_years = sum(policy.drive_years for policy in fresh.policies)
            m.add("main_per_s", drive_years / fresh_s[0])
            m.add("alt_per_s", drive_years / parallel_s[0])
            m.add("raw_main_per_s", drive_years / fresh_s[1])
            m.add("raw_alt_per_s", drive_years / parallel_s[1])
            m.add("resume_s", resume_s[1])
            if index == 0:
                m.outputs = metrics
                m.counts = {
                    "fleet.shards": fresh.shards_completed,
                    "fleet.losses": sum(policy.losses for policy in fresh.policies),
                    "fleet.drive_failures": sum(
                        policy.drive_failures for policy in fresh.policies
                    ),
                }
            else:
                m.check(
                    canonical(metrics) == canonical(m.outputs),
                    f"rep {index}: campaign metrics changed",
                )

        self.run_reps(rep, seconds)
        return m

    def _layers(self, m: Measurement, tracer, root: str, fresh_s: float) -> None:
        """Call the layers below ``CampaignRunner.run`` one at a time."""
        spec = self.spec
        with tracer.span("fleet.shard_params"):
            params, params_s = _timed(CampaignRunner.shard_param_sets, spec)
        shard_s = []
        results = []
        for p in params:
            with tracer.span("fleet.shard_task", shard=p["shard_index"]):
                result, elapsed = _timed(fleet_shard_task, **p)
            results.append(result)
            shard_s.append(elapsed)
        with tracer.span("verify.fleet.check"):
            start = time.perf_counter()
            for result in results:
                check_shard_result(spec, result)
            check_fleet_conservation(spec, results)
            check_s = time.perf_counter() - start
        journal_dir = os.path.join(root, "journal-probe")
        journal = CampaignJournal(journal_dir, spec)
        with tracer.span("fleet.journal.record"):
            start = time.perf_counter()
            for p, result in zip(params, results):
                journal.record(p["shard_index"], p, result)
            record_s = time.perf_counter() - start
        journal = CampaignJournal(journal_dir, spec)
        with tracer.span("fleet.journal.load"):
            start = time.perf_counter()
            hits = [journal.load(p)[0] for p in params]
            load_s = time.perf_counter() - start
        m.check(all(hits), "journal probe: a recorded shard did not load")
        checkpoints = os.path.join(journal_dir, "checkpoints")
        journal_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(checkpoints)
            for name in names
        )
        with tracer.span("parallel.supervise.map"):
            outcomes, map_s = _timed(
                SupervisedRunner(workers=WORKERS).map, fleet_shard_task, params
            )
        m.check(all(o.ok for o in outcomes), "supervised map: a shard failed")
        for name, value in (
            ("shard_params_s", params_s),
            ("shard_task_s", sum(shard_s)),
            ("shard_task_max_s", max(shard_s)),
            ("check_s", check_s),
            ("record_s", record_s),
            ("load_s", load_s),
            ("journal_bytes", journal_bytes),
            ("unattributed_s", fresh_s - (params_s + sum(shard_s) + check_s + record_s)),
            ("map_s", map_s),
            ("efficiency", sum(shard_s) / (WORKERS * map_s)),
            ("attempts", sum(o.attempts for o in outcomes)),
        ):
            m.add(name, value)

    def layer_metrics(self, plain: Measurement, traced: Measurement) -> dict:
        return {
            "fleet.drive_years_per_s": plain.median("raw_main_per_s"),
            "fleet.drive_years_per_s_parallel": plain.median("raw_alt_per_s"),
            "fleet.resume_wall_s": plain.median("resume_s"),
            "fleet.shard_params_s": traced.median("shard_params_s"),
            "fleet.shard_task_s": traced.median("shard_task_s"),
            "fleet.shard_task_calls": SHARDS,
            "fleet.shard_task_max_s": traced.median("shard_task_max_s"),
            "verify.fleet.check_s": traced.median("check_s"),
            "fleet.journal.record_s": traced.median("record_s"),
            "fleet.journal.load_s": traced.median("load_s"),
            "fleet.journal.bytes": traced.median("journal_bytes"),
            "fleet.campaign_unattributed_s": traced.median("unattributed_s"),
            "parallel.supervise.map_s": traced.median("map_s"),
            "parallel.supervise.efficiency": traced.median("efficiency"),
            "parallel.supervise.attempts": traced.median("attempts"),
            "obs.monitor.overhead_fraction": traced.median("monitor_overhead"),
            "obs.monitor.events_bytes": traced.median("events_bytes"),
        }
