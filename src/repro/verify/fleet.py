"""Fleet-level invariants: conservation laws for campaigns.

The single-drive invariants (:mod:`repro.verify.invariants`) audit one
simulation's event stream; a fleet campaign adds a layer of accounting
that can silently rot — shards merged twice, a group counted in two
states, checkpoints from a different campaign — so PR 7 adds the
matching conservation laws:

* **drive-state conservation** (:func:`check_shard_result`) — every
  group ends the mission in exactly one of OK / degraded / rebuilding
  / lost; loss modes sum to losses; lost groups equal losses; a group
  cannot rebuild more often than drives failed; observed time is
  bounded by the mission;
* **fleet conservation** (:func:`check_fleet_conservation`) — shard
  ranges are disjoint and inside the fleet, every policy block agrees
  on its shard's group count, and a complete campaign covers exactly
  the fleet;
* **checkpoint-digest consistency** (:func:`check_campaign_journal`) —
  the journal's manifest digest matches the spec, every checkpoint on
  disk is named by a shard key recomputed from the spec today, and
  every one of them still loads (corrupt ones having been evicted, not
  trusted).

All violations raise the same structured
:class:`~repro.verify.invariants.InvariantViolation` the runtime
checker uses, so CI treats fleet rot exactly like an engine bug.

The module also keeps the shard kernel's **reference ledger**
(:func:`reference_shard_task` and the two functions under it): the
per-(policy, group) loop the kernel replaced, which the ``fleet-kernel``
differential axis and ``tests/test_fleet_kernel.py`` hold it equal to.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.fleet.spec import (
    _PROFILE_STREAM,
    CampaignSpec,
    FleetSpec,
    GroupProfile,
    group_seed,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.worker import PROBE
from repro.parallel.cache import derive_seed
from repro.raid.reliability import HOURS_PER_YEAR, lse_exposure_probability
from repro.verify.invariants import InvariantViolation

__all__ = [
    "check_campaign_journal",
    "check_fleet_conservation",
    "check_shard_result",
    "reference_group_profile",
    "reference_shard_task",
    "reference_simulate_group",
]

_STATES = ("ok", "degraded", "rebuilding", "lost")
_MODES = ("double", "lse", "unprotected")


def _violation(invariant: str, message: str) -> InvariantViolation:
    return InvariantViolation(invariant, message)


def check_shard_result(spec, result: dict) -> None:
    """Audit one shard result's internal ledger."""
    mission_hours = spec.mission_years * HOURS_PER_YEAR
    groups = result.get("group_count")
    start = result.get("group_start")
    if not isinstance(groups, int) or groups <= 0:
        raise _violation(
            "fleet-shard-shape", f"bad group_count {groups!r} in shard"
        )
    if not 0 <= start < spec.fleet.groups:
        raise _violation(
            "fleet-shard-shape",
            f"shard group_start {start} outside fleet [0, {spec.fleet.groups})",
        )
    blocks = result.get("policies", [])
    if len(blocks) != len(spec.policies):
        raise _violation(
            "fleet-shard-shape",
            f"shard has {len(blocks)} policy blocks for "
            f"{len(spec.policies)} policies",
        )
    for block in blocks:
        name = block.get("name", "?")
        states = block.get("states", {})
        total_states = sum(states.get(state, 0) for state in _STATES)
        if set(states) - set(_STATES):
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: unknown drive-group states "
                f"{sorted(set(states) - set(_STATES))}",
            )
        if total_states != block.get("groups") or total_states != groups:
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: states sum to {total_states}, "
                f"expected {groups} groups "
                f"(ok={states.get('ok', 0)}, degraded={states.get('degraded', 0)}, "
                f"rebuilding={states.get('rebuilding', 0)}, lost={states.get('lost', 0)})",
            )
        losses = block.get("losses", 0)
        by_mode = block.get("losses_by_mode", {})
        mode_sum = sum(by_mode.get(mode, 0) for mode in _MODES)
        if set(by_mode) - set(_MODES) or mode_sum != losses:
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: loss modes {by_mode} sum to {mode_sum}, "
                f"expected {losses}",
            )
        if states.get("lost", 0) != losses:
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: {states.get('lost', 0)} lost groups but "
                f"{losses} loss events",
            )
        if block.get("rebuilds_completed", 0) > block.get("drive_failures", 0):
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: more rebuilds "
                f"({block.get('rebuilds_completed')}) than drive failures "
                f"({block.get('drive_failures')})",
            )
        observed = block.get("observed_group_hours", 0.0)
        if not 0.0 <= observed <= groups * mission_hours * (1 + 1e-9):
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: observed {observed:.1f} group-hours "
                f"outside [0, {groups * mission_hours:.1f}]",
            )
        group_hours = block.get("group_hours")
        if group_hours is None or len(group_hours) != groups:
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: {0 if group_hours is None else len(group_hours)} "
                f"per-group hour entries for {groups} groups",
            )
        if math.fsum(group_hours) != observed:
            raise _violation(
                "fleet-state-conservation",
                f"policy {name}: per-group hours sum to "
                f"{math.fsum(group_hours):.6f}, ledger says {observed:.6f}",
            )


def check_fleet_conservation(
    spec, shard_results: Sequence[dict], allow_partial: bool = False
) -> None:
    """Audit a set of shard results as one fleet.

    ``allow_partial`` accepts gaps (a degraded campaign) but still
    rejects overlaps, out-of-range shards, and over-coverage.
    """
    covered = []
    for result in shard_results:
        check_shard_result(spec, result)
        covered.append(
            (result["group_start"], result["group_start"] + result["group_count"])
        )
    covered.sort()
    previous_end = None
    total = 0
    for start, end in covered:
        if end > spec.fleet.groups:
            raise _violation(
                "fleet-conservation",
                f"shard range [{start}, {end}) exceeds fleet of "
                f"{spec.fleet.groups} groups",
            )
        if previous_end is not None and start < previous_end:
            raise _violation(
                "fleet-conservation",
                f"shard ranges overlap at group {start}",
            )
        previous_end = end
        total += end - start
    if total > spec.fleet.groups:
        raise _violation(
            "fleet-conservation",
            f"shards cover {total} groups, fleet has {spec.fleet.groups}",
        )
    if not allow_partial and total != spec.fleet.groups:
        raise _violation(
            "fleet-conservation",
            f"shards cover {total} of {spec.fleet.groups} groups "
            "(campaign incomplete)",
        )


def check_campaign_journal(journal_dir, spec) -> int:
    """Audit a journal directory against its campaign spec.

    Returns the number of verified checkpoints: the shards whose key,
    recomputed from the spec, the journal holds (a missing one is
    remaining work).  Raises :class:`InvariantViolation` on digest
    drift: a manifest belonging to a different campaign, a checkpoint
    that no spec-derived key names, or a checkpoint that fails to load
    (evicted as corrupt).
    """
    from repro.fleet.campaign import CampaignRunner
    from repro.fleet.journal import CampaignJournal, JournalError

    try:
        journal = CampaignJournal(journal_dir, spec)
    except JournalError as exc:
        raise _violation("checkpoint-digest", str(exc))
    cache = journal.cache
    keys = {
        journal.key_for(params): params["shard_index"]
        for params in CampaignRunner.shard_param_sets(spec)
    }
    for path in sorted(cache.root.glob("*/*.pkl")):
        if path.stem not in keys:
            raise _violation(
                "checkpoint-digest",
                f"checkpoint {path.stem[:12]}... matches no shard key "
                f"derived from the spec",
            )
    verified = 0
    for key, shard_index in keys.items():
        evictions = cache.evictions
        hit, result = cache.get(key)
        if cache.evictions != evictions:
            raise _violation(
                "checkpoint-digest",
                f"shard {shard_index} checkpoint {key[:12]}... is corrupt "
                "(evicted)",
            )
        if hit:
            check_shard_result(spec, result)
            verified += 1
    return verified


# -- reference ledger ----------------------------------------------------------
#
# The shard kernel as it stood before groups were walked once: one
# generator per (policy, group), one profile draw per (policy, group).
# Kept as the oracle the kernel is differentially tested against; not
# on any production path.


def reference_group_profile(
    fleet: FleetSpec, campaign_seed: int, group_index: int
) -> GroupProfile:
    """One group's profile, drawn the pre-batching way (reference).

    A fresh generator and a fresh weight vector per call, whatever the
    fleet: what :func:`repro.fleet.spec.group_profiles` must reproduce
    for every group on both its drawn and its no-draw path.
    """
    rng = np.random.default_rng(
        derive_seed(derive_seed(campaign_seed, _PROFILE_STREAM), group_index)
    )
    weights = np.array([cls.weight for cls in fleet.classes])
    pick = rng.random() * float(weights.sum())
    class_index = int(np.searchsorted(np.cumsum(weights), pick, side="right"))
    class_index = min(class_index, len(fleet.classes) - 1)
    cls = fleet.classes[class_index]
    age = cls.age_years + rng.random() * fleet.age_spread_years
    accel = 1.0 + cls.wearout_per_year * age
    return GroupProfile(
        class_index=class_index,
        preset=cls.preset,
        mttf_hours=cls.mttf_hours / accel,
        lse_burst_rate_per_hour=cls.lse_burst_rate_per_hour,
        age_years=age,
    )


def reference_simulate_group(
    rng: np.random.Generator,
    disks: int,
    redundancy: int,
    mttf_hours: float,
    mttr_hours: float,
    spare_delay_hours: float,
    p_lse: float,
    mission_hours: float,
) -> Dict[str, float]:
    """One group's mission under one policy, stopping at its own loss.

    The reference for :func:`repro.fleet.montecarlo.simulate_group`:
    the rebuild-read draw is compared with ``p_lse`` inside the loop,
    so each policy replays the group's stream from the start.
    """
    lam = 1.0 / mttf_hours
    window = spare_delay_hours + mttr_hours
    t = 0.0
    failures = 0
    rebuilds = 0
    state = "ok"
    loss_mode = None
    while True:
        wait = rng.exponential(1.0 / (disks * lam))
        if t + wait >= mission_hours:
            t = mission_hours
            break
        t += wait
        failures += 1
        if redundancy == 0:
            state = "lost"
            loss_mode = "unprotected"
            break
        # Exposure window: degraded (spare attach) then rebuilding.
        second = rng.exponential(1.0 / ((disks - 1) * lam))
        if second < window:
            if t + second >= mission_hours:
                # Mission ended while exposed, before the second failure.
                exposed = mission_hours - t
                t = mission_hours
                state = (
                    "degraded" if exposed < spare_delay_hours else "rebuilding"
                )
                break
            failures += 1
            t += second
            state = "lost"
            loss_mode = "double"
            break
        if t + spare_delay_hours >= mission_hours:
            t = mission_hours
            state = "degraded"
            break
        if t + window >= mission_hours:
            t = mission_hours
            state = "rebuilding"
            break
        t += window
        # The rebuild read sweeps the survivors; an unrepaired latent
        # error there is unrecoverable (the paper's Section I scenario).
        if rng.random() < p_lse:
            state = "lost"
            loss_mode = "lse"
            break
        rebuilds += 1
    return {
        "state": state,
        "loss_mode": loss_mode,
        "observed_hours": t,
        "drive_failures": failures,
        "rebuilds_completed": rebuilds,
    }


def reference_shard_task(
    spec: CampaignSpec,
    shard_index: int,
    group_start: int,
    group_count: int,
    latent_windows: Tuple[float, ...],
) -> dict:
    """The per-(policy, group) shard loop: the kernel's reference ledger.

    Same signature and result shape as
    :func:`repro.fleet.montecarlo.fleet_shard_task`, so it can stand in
    as ``CampaignRunner(task=...)``; every policy block, ``group_hours``
    list and telemetry snapshot must equal the kernel's bit for bit
    (the ``fleet-kernel`` differential axis).  Only ``phases`` wall
    times may differ.
    """
    if group_count <= 0:
        raise ValueError(f"group_count must be positive: {group_count}")
    if len(latent_windows) != len(spec.policies):
        raise ValueError(
            f"{len(latent_windows)} latent windows for "
            f"{len(spec.policies)} policies"
        )
    fleet = spec.fleet
    mission_hours = spec.mission_years * HOURS_PER_YEAR
    registry = MetricsRegistry()
    policies = []
    phases = []
    # One probe step per (policy, group): the heartbeat thread samples
    # these two integers, nothing here ever blocks on observability.
    PROBE.reset(group_count * len(spec.policies))
    for policy_index, policy in enumerate(spec.policies):
        window = latent_windows[policy_index]
        phase_started = time.perf_counter()
        states = {"ok": 0, "degraded": 0, "rebuilding": 0, "lost": 0}
        losses = {"double": 0, "lse": 0, "unprotected": 0}
        drive_failures = 0
        rebuilds_completed = 0
        group_hours = []
        for group_index in range(group_start, group_start + group_count):
            profile = reference_group_profile(fleet, spec.seed, group_index)
            p_lse = lse_exposure_probability(
                fleet.disks_per_group - 1,
                profile.lse_burst_rate_per_hour,
                window,
            )
            rng = np.random.default_rng(group_seed(spec.seed, group_index))
            ledger = reference_simulate_group(
                rng,
                fleet.disks_per_group,
                fleet.redundancy,
                profile.mttf_hours,
                fleet.mttr_hours,
                fleet.spare_delay_hours,
                p_lse,
                mission_hours,
            )
            states[ledger["state"]] += 1
            if ledger["loss_mode"] is not None:
                losses[ledger["loss_mode"]] += 1
                registry.histogram("fleet.time_to_loss_years").observe(
                    ledger["observed_hours"] / HOURS_PER_YEAR
                )
            drive_failures += ledger["drive_failures"]
            rebuilds_completed += ledger["rebuilds_completed"]
            group_hours.append(ledger["observed_hours"])
            PROBE.advance()
        # fsum is exactly rounded, so the shard sum — and the campaign
        # merge re-summing the per-group hours — is independent of how
        # the fleet happens to be partitioned into shards.
        observed_group_hours = math.fsum(group_hours)
        total_losses = sum(losses.values())
        registry.counter("fleet.groups").inc(group_count)
        registry.counter("fleet.drive_failures").inc(drive_failures)
        registry.counter("fleet.rebuilds_completed").inc(rebuilds_completed)
        registry.counter("fleet.losses").inc(total_losses)
        registry.counter("fleet.losses.double").inc(losses["double"])
        registry.counter("fleet.losses.lse").inc(losses["lse"])
        policies.append(
            {
                "name": policy.name,
                "groups": group_count,
                "losses": total_losses,
                "losses_by_mode": dict(losses),
                "drive_failures": drive_failures,
                "rebuilds_completed": rebuilds_completed,
                "observed_group_hours": observed_group_hours,
                "drive_hours": observed_group_hours * fleet.disks_per_group,
                "group_hours": group_hours,
                "states": dict(states),
                "latent_window_hours": float(window),
            }
        )
        phases.append(
            {
                "policy": policy.name,
                "wall_s": time.perf_counter() - phase_started,
            }
        )
    # "phases" is deliberately *outside* the telemetry snapshot: wall
    # timings are non-deterministic, and keeping them out of the
    # metrics keeps merged campaign telemetry (and metrics_dict)
    # bit-identical across runs, shard layouts and monitor settings.
    return {
        "shard": int(shard_index),
        "group_start": int(group_start),
        "group_count": int(group_count),
        "policies": policies,
        "telemetry": {"metrics": registry.snapshot()},
        "phases": phases,
    }
