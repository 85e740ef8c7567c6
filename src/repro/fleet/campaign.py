"""Campaign execution: shard, supervise, checkpoint, merge, estimate.

:class:`CampaignRunner` turns a :class:`~repro.fleet.spec.CampaignSpec`
into fleet-level answers:

* shards the fleet into contiguous group ranges and runs
  :func:`~repro.fleet.montecarlo.fleet_shard_task` over them — under
  the fault-tolerant :class:`~repro.parallel.supervise.SupervisedRunner`
  (heartbeats, hung-task deadlines, seeded-backoff retries, straggler
  re-dispatch) or serially for ``workers<=1``;
* checkpoints every completed shard into the
  :class:`~repro.fleet.journal.CampaignJournal` *as it lands* (not
  after a barrier), so SIGKILL and ``KeyboardInterrupt`` lose at most
  the shards in flight;
* on resume, recomputes every shard key and skips the journal's hits —
  :attr:`CampaignResult.shards_resumed` counts them, which is how the
  tests assert a resume did no duplicate work;
* salvages partial fleets: shards that exhaust their retries are
  dropped from the estimate and reported through
  :attr:`CampaignResult.completeness` — an explicit fraction, never a
  silent gap — while every completed shard still contributes;
* merges per-shard telemetry with
  :func:`repro.obs.metrics.merge_snapshots` (shard order, so the
  merged snapshot is independent of completion order) and estimates,
  per policy: MTTDL with a Poisson (chi-square) confidence interval,
  mission loss probability with a Wilson interval, and the matching
  closed-form prediction from
  :func:`repro.raid.reliability.group_reliability` averaged over the
  fleet's deterministic per-group profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fleet.journal import CampaignJournal
from repro.fleet.montecarlo import fleet_shard_task
from repro.fleet.spec import (
    CampaignSpec,
    GroupProfile,
    campaign_digest,
    group_profiles,
    resolve_latent_windows,
)
from repro.obs.metrics import merge_snapshots
from repro.raid.reliability import (
    HOURS_PER_YEAR,
    GroupReliability,
    group_reliability,
)

__all__ = [
    "CampaignCancelled",
    "CampaignResult",
    "CampaignRunner",
    "PolicyEstimate",
    "closed_form_policy",
    "loss_rate_interval",
    "wilson_interval",
]


class CampaignCancelled(RuntimeError):
    """The campaign's ``should_stop`` signal fired mid-run.

    Raised *after* every already-completed shard has been checkpointed
    to the journal, so a cancelled campaign is always resumable: re-run
    the same spec against the same journal and the landed shards are
    cache hits.  The orchestration service maps this to the job state
    ``cancelled``.
    """


def loss_rate_interval(losses: int, exposure_hours: float) -> Tuple[float, float]:
    """95% Poisson CI for a loss *rate* given ``losses`` over ``exposure``.

    Exact (Garwood) bounds: ``chi2.ppf(q, 2k) / 2`` is
    ``gammaincinv(k, q)``, which is what SciPy's chi-square evaluates;
    ``losses=0`` yields a one-sided interval.
    """
    if exposure_hours <= 0:
        raise ValueError(f"exposure must be positive: {exposure_hours}")
    if losses < 0:
        raise ValueError(f"losses must be >= 0: {losses}")
    from scipy.special import gammaincinv  # at the call: see DESIGN section 17

    alpha = 1.0 - 0.95
    low = gammaincinv(losses, alpha / 2) if losses > 0 else 0.0
    high = gammaincinv(losses + 1, 1 - alpha / 2)
    return low / exposure_hours, high / exposure_hours


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = 1.959963984540054 if confidence == 0.95 else _z_for(confidence)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, (centre - spread) / denom), min(1.0, (centre + spread) / denom)


def _z_for(confidence: float) -> float:
    from scipy.special import ndtri  # what norm.ppf evaluates

    return float(ndtri(0.5 + confidence / 2))


@dataclass
class PolicyEstimate:
    """Fleet-level reliability estimate for one scrub policy."""

    name: str
    groups: int
    losses: int
    losses_by_mode: Dict[str, int]
    drive_failures: int
    rebuilds_completed: int
    observed_group_hours: float
    drive_hours: float
    states: Dict[str, int]
    latent_window_hours: float
    #: Monte-Carlo MTTDL (hours) with its 95% CI; ``inf`` when no loss
    #: was observed (the CI lower bound is still finite).
    mttdl_hours: float = math.inf
    mttdl_ci_hours: Tuple[float, float] = (0.0, math.inf)
    #: P(a group loses data within the mission), with Wilson CI.
    p_loss_mission: float = 0.0
    p_loss_ci: Tuple[float, float] = (0.0, 1.0)
    #: Closed-form predictions averaged over the fleet's group profiles.
    closed_form_mttdl_hours: float = math.inf
    closed_form_p_loss: float = 0.0

    @property
    def mttdl_years(self) -> float:
        return self.mttdl_hours / HOURS_PER_YEAR

    @property
    def drive_years(self) -> float:
        return self.drive_hours / HOURS_PER_YEAR


@dataclass
class CampaignResult:
    """Everything a finished (possibly degraded) campaign knows."""

    spec: CampaignSpec
    policies: List[PolicyEstimate]
    #: Fraction of the fleet's groups that completed simulation.
    completeness: float
    shards_total: int
    shards_completed: int
    shards_resumed: int
    shards_failed: int
    failed_shards: List[int]
    telemetry: dict
    #: Task attempt accounting from the supervision layer (empty for
    #: serial runs): total attempts, retries, timeouts, worker deaths,
    #: and ``peak_rss_kb`` — the largest lifetime peak RSS any worker
    #: reported with a heartbeat or a reply.  Workers are reused across shards, so
    #: it is a per-worker high-water mark, not a per-shard one.
    supervision: Dict[str, int] = field(default_factory=dict)

    def metrics_dict(self) -> dict:
        """Canonical nested-dict form for bit-identity comparisons."""
        return {
            "completeness": self.completeness,
            "policies": [
                {
                    "name": p.name,
                    "groups": p.groups,
                    "losses": p.losses,
                    "losses_by_mode": dict(p.losses_by_mode),
                    "drive_failures": p.drive_failures,
                    "rebuilds_completed": p.rebuilds_completed,
                    "observed_group_hours": p.observed_group_hours,
                    "drive_hours": p.drive_hours,
                    "states": dict(p.states),
                    "mttdl_hours": p.mttdl_hours,
                    "mttdl_ci_hours": tuple(p.mttdl_ci_hours),
                    "p_loss_mission": p.p_loss_mission,
                    "p_loss_ci": tuple(p.p_loss_ci),
                }
                for p in self.policies
            ],
        }


def closed_form_policy(
    spec: CampaignSpec,
    profiles: Sequence[GroupProfile],
    latent_window_hours: float,
) -> Tuple[float, float]:
    """Fleet-averaged closed-form ``(mttdl_hours, p_loss_mission)``.

    ``profiles`` is ``group_profiles(spec.fleet, spec.seed, 0, groups)``,
    shared by every policy of the campaign.  Heterogeneity is handled
    exactly: every group's profile is deterministic, so the fleet's loss
    rate is the mean of per-group closed-form rates and its mission loss
    probability the mean of per-group probabilities — summed in group
    order, with the closed form evaluated once per distinct
    ``(mttf_hours, lse_burst_rate_per_hour)``.
    """
    fleet = spec.fleet
    mission_hours = spec.mission_years * HOURS_PER_YEAR
    by_profile: Dict[Tuple[float, float], GroupReliability] = {}
    rate_sum = 0.0
    p_sum = 0.0
    for profile in profiles:
        key = (profile.mttf_hours, profile.lse_burst_rate_per_hour)
        rel = by_profile.get(key)
        if rel is None:
            rel = by_profile[key] = group_reliability(
                disks=fleet.disks_per_group,
                mttf_hours=profile.mttf_hours,
                mttr_hours=fleet.mttr_hours,
                mission_hours=mission_hours,
                spare_delay_hours=fleet.spare_delay_hours,
                lse_burst_rate_per_hour=profile.lse_burst_rate_per_hour,
                latent_window_hours=latent_window_hours,
                redundancy=fleet.redundancy,
            )
        rate_sum += rel.loss_rate_per_hour
        p_sum += rel.p_loss_mission
    mean_rate = rate_sum / fleet.groups
    mttdl = math.inf if mean_rate == 0 else 1.0 / mean_rate
    return mttdl, p_sum / fleet.groups


class CampaignRunner:
    """Runs a campaign end to end; see the module docstring.

    Parameters
    ----------
    spec:
        The campaign.
    journal_dir:
        Directory for durable checkpoints; ``None`` runs without
        durability (no resume).
    workers:
        Worker processes.  ``0``/``1`` runs shards serially in-process
        (still checkpointing per shard); more uses
        :class:`SupervisedRunner`.
    task_timeout, heartbeat_interval, retry, straggler_factor:
        Passed to :class:`SupervisedRunner`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for
        campaign/supervision/cache counters.
    verify:
        Run :mod:`repro.verify.fleet` conservation checks on every
        shard result and the merged fleet (default on; failures raise
        :class:`~repro.verify.invariants.InvariantViolation`).
    task:
        The shard task to execute — ``fleet_shard_task`` unless a test
        injects a fault-wrapping variant.  Checkpoint keys are computed
        against :func:`fleet_shard_task` regardless, because a wrapper
        must produce bit-identical results to be a valid stand-in.
    on_shard:
        Optional hook ``(shard_index, result) -> None`` fired after
        each shard is checkpointed; tests use it to inject
        ``KeyboardInterrupt`` at precise points.
    monitor:
        Optional :class:`~repro.obs.monitor.CampaignMonitor` (duck
        typed).  Purely observational: it receives lifecycle events and
        worker heartbeat samples, and can never change a result — the
        differential oracle's ``monitor`` axis asserts campaign metrics
        are bit-identical with a monitor attached or not.
    should_stop:
        Optional zero-argument callable polled between shards (serial)
        and by the supervision loop (parallel).  Returning ``True``
        cancels the campaign: in-flight attempts are terminated, every
        *completed* shard stays checkpointed, and :meth:`run` raises
        :class:`CampaignCancelled`.  The orchestration service wires
        this to the job queue's cancel flag.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        journal_dir=None,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = 1.0,
        retry=None,
        straggler_factor: Optional[float] = None,
        metrics=None,
        verify: bool = True,
        task: Optional[Callable] = None,
        on_shard: Optional[Callable[[int, dict], None]] = None,
        monitor=None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.spec = spec
        self.journal_dir = journal_dir
        self.workers = workers if workers is not None else 1
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.retry = retry
        self.straggler_factor = straggler_factor
        self.metrics = metrics
        self.verify = verify
        self.task = task if task is not None else fleet_shard_task
        self.on_shard = on_shard
        self.monitor = monitor
        self.should_stop = should_stop

    @staticmethod
    def shard_param_sets(spec: CampaignSpec) -> List[dict]:
        """The campaign's full work list, deterministic from the spec."""
        windows = resolve_latent_windows(spec)
        return [
            {
                "spec": spec,
                "shard_index": shard_index,
                "group_start": start,
                "group_count": count,
                "latent_windows": windows,
            }
            for shard_index, (start, count) in enumerate(spec.shard_ranges())
        ]

    # -- execution -----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign and estimate fleet metrics."""
        spec = self.spec
        journal = None
        if self.journal_dir is not None:
            journal = CampaignJournal(
                self.journal_dir, spec, metrics=self.metrics
            )
        param_sets = self.shard_param_sets(spec)
        monitor = self.monitor
        if monitor is not None:
            monitor.campaign_started(
                digest=campaign_digest(spec),
                shard_ranges=spec.shard_ranges(),
                policy_names=[policy.name for policy in spec.policies],
                workers=self.workers,
                mission_years=spec.mission_years,
                disks_per_group=spec.fleet.disks_per_group,
            )

        results: Dict[int, dict] = {}
        resumed = 0
        remaining: List[dict] = []
        #: shard index -> checkpoint key, computed once per shard.
        keys: Dict[int, str] = {}
        for params in param_sets:
            if journal is not None:
                key = keys[params["shard_index"]] = journal.key_for(params)
                hit, value = journal.load(params, key)
                if hit:
                    results[params["shard_index"]] = value
                    resumed += 1
                    if monitor is not None:
                        monitor.shard_resumed(params["shard_index"], value)
                    continue
            remaining.append(params)
        if self.metrics is not None:
            self.metrics.counter("fleet.shards_resumed").inc(resumed)

        failed: List[int] = []
        supervision: Dict[str, int] = {}

        def land(shard_index: int, params: dict, result: dict) -> None:
            if self.verify:
                from repro.verify.fleet import check_shard_result

                check_shard_result(spec, result)
            results[shard_index] = result
            if journal is not None:
                journal.record(shard_index, params, result, keys[shard_index])
            if self.on_shard is not None:
                self.on_shard(shard_index, result)

        def cancelled() -> bool:
            return self.should_stop is not None and self.should_stop()

        if remaining and cancelled():
            raise CampaignCancelled(
                f"campaign cancelled before start: {resumed} shard(s) "
                f"already checkpointed, {len(remaining)} remaining"
            )

        if remaining and self.workers <= 1:
            for params in remaining:
                shard_index = params["shard_index"]
                if cancelled():
                    raise CampaignCancelled(
                        f"campaign cancelled at shard {shard_index}: "
                        f"{len(results)}/{len(param_sets)} shard(s) "
                        "checkpointed"
                    )
                if monitor is not None:
                    monitor.shard_started(shard_index, attempt=1)
                result = self.task(**params)
                land(shard_index, params, result)
                if monitor is not None:
                    monitor.shard_completed(shard_index, result, attempt=1)
        elif remaining:
            from repro.parallel.supervise import SupervisedRunner

            runner = SupervisedRunner(
                workers=self.workers,
                task_timeout=self.task_timeout,
                heartbeat_interval=self.heartbeat_interval,
                retry=self.retry,
                straggler_factor=self.straggler_factor,
                metrics=self.metrics,
            )
            def on_result(outcome) -> None:
                params = remaining[outcome.index]
                if outcome.ok:
                    land(params["shard_index"], params, outcome.value)
                    if monitor is not None:
                        monitor.shard_completed(
                            params["shard_index"],
                            outcome.value,
                            attempt=outcome.attempts,
                            duration=outcome.duration,
                        )
                elif monitor is not None:
                    monitor.shard_failed(
                        params["shard_index"], outcome.error or "failed"
                    )

            on_event = None
            if monitor is not None:
                def on_event(kind, index, info) -> None:
                    shard_index = remaining[index]["shard_index"]
                    if kind == "attempt_started":
                        monitor.shard_started(
                            shard_index,
                            attempt=info.get("attempt", 1),
                            speculative=info.get("speculative", False),
                        )
                    elif kind == "heartbeat":
                        monitor.shard_heartbeat(
                            shard_index,
                            info.get("attempt", 1),
                            info.get("payload"),
                        )
                    elif kind == "attempt_failed":
                        monitor.shard_attempt_failed(
                            shard_index,
                            info.get("attempt", 1),
                            info.get("kind", "error"),
                            info.get("error", ""),
                            info.get("duration", 0.0),
                        )

            outcomes = runner.map(
                self.task, remaining, on_result=on_result, on_event=on_event,
                should_stop=self.should_stop,
            )
            if cancelled():
                # Landed shards are journaled; in-flight attempts were
                # terminated by the supervision loop.
                raise CampaignCancelled(
                    f"campaign cancelled: {len(results)}/{len(param_sets)} "
                    "shard(s) checkpointed"
                )
            for outcome, params in zip(outcomes, remaining):
                if not outcome.ok:
                    failed.append(params["shard_index"])
            supervision = {
                "attempts": sum(o.attempts for o in outcomes),
                "retries": sum(max(0, o.attempts - 1) for o in outcomes),
                "timeouts": sum(o.timeouts for o in outcomes),
                "worker_deaths": sum(o.worker_deaths for o in outcomes),
                "stalls": sum(o.stalls for o in outcomes),
                "speculated": sum(o.speculated for o in outcomes),
                "peak_rss_kb": max(
                    (o.peak_rss_kb or 0 for o in outcomes), default=0
                ),
            }

        result = self._merge(
            param_sets, results, resumed, sorted(failed), supervision
        )
        if monitor is not None:
            monitor.campaign_finished(result)
        return result

    # -- merging and estimation ---------------------------------------------

    def _merge(
        self,
        param_sets: Sequence[dict],
        results: Dict[int, dict],
        resumed: int,
        failed: List[int],
        supervision: Dict[str, int],
    ) -> CampaignResult:
        spec = self.spec
        completed = [results[i] for i in sorted(results)]
        if self.verify:
            from repro.verify.fleet import check_fleet_conservation

            check_fleet_conservation(spec, completed, allow_partial=True)
        groups_done = sum(shard["group_count"] for shard in completed)
        completeness = groups_done / spec.fleet.groups
        windows = (
            param_sets[0]["latent_windows"]
            if param_sets
            else resolve_latent_windows(spec)
        )

        profiles = group_profiles(spec.fleet, spec.seed, 0, spec.fleet.groups)
        estimates: List[PolicyEstimate] = []
        for policy_index, policy in enumerate(spec.policies):
            blocks = [shard["policies"][policy_index] for shard in completed]
            groups = sum(b["groups"] for b in blocks)
            losses = sum(b["losses"] for b in blocks)
            by_mode: Dict[str, int] = {}
            states: Dict[str, int] = {}
            for b in blocks:
                for mode, count in b["losses_by_mode"].items():
                    by_mode[mode] = by_mode.get(mode, 0) + count
                for state, count in b["states"].items():
                    states[state] = states.get(state, 0) + count
            # Re-sum per-group hours with fsum so the merged total is
            # bit-identical no matter how the fleet was sharded
            # (`completed` is sorted by shard index = group order).
            observed = math.fsum(
                hours for b in blocks for hours in b["group_hours"]
            )
            estimate = PolicyEstimate(
                name=policy.name,
                groups=groups,
                losses=losses,
                losses_by_mode=dict(sorted(by_mode.items())),
                drive_failures=sum(b["drive_failures"] for b in blocks),
                rebuilds_completed=sum(b["rebuilds_completed"] for b in blocks),
                observed_group_hours=observed,
                drive_hours=observed * spec.fleet.disks_per_group,
                states=dict(sorted(states.items())),
                latent_window_hours=float(windows[policy_index]),
            )
            if observed > 0:
                low, high = loss_rate_interval(losses, observed)
                estimate.mttdl_hours = (
                    observed / losses if losses else math.inf
                )
                estimate.mttdl_ci_hours = (
                    1.0 / high if high > 0 else math.inf,
                    1.0 / low if low > 0 else math.inf,
                )
            if groups > 0:
                estimate.p_loss_mission = losses / groups
                estimate.p_loss_ci = wilson_interval(losses, groups)
            cf_mttdl, cf_p = closed_form_policy(
                spec, profiles, float(windows[policy_index])
            )
            estimate.closed_form_mttdl_hours = cf_mttdl
            estimate.closed_form_p_loss = cf_p
            estimates.append(estimate)

        merged = merge_snapshots(
            [shard["telemetry"]["metrics"] for shard in completed]
        )
        merged.setdefault("gauges", {})["fleet.completeness"] = completeness
        if self.metrics is not None:
            self.metrics.gauge("fleet.completeness").set(completeness)

        return CampaignResult(
            spec=spec,
            policies=estimates,
            completeness=completeness,
            shards_total=len(param_sets),
            shards_completed=len(completed),
            shards_resumed=resumed,
            shards_failed=len(failed),
            failed_shards=failed,
            telemetry=merged,
            supervision=supervision,
        )
