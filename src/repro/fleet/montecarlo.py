"""The fleet shard kernel: Monte-Carlo drive-years, one shard at a time.

:func:`fleet_shard_task` is the campaign's unit of distributed work: a
module-level pure function of its parameters, which makes it

* **poolable** — it pickles across process boundaries for
  :class:`~repro.parallel.supervise.SupervisedRunner`;
* **checkpointable** — its result caches under a content-addressed key
  (:class:`~repro.parallel.cache.ResultCache` over the canonicalized
  :class:`~repro.fleet.spec.CampaignSpec` + shard range), which is the
  whole resume story;
* **reproducible** — every random draw comes from
  :func:`~repro.fleet.spec.group_seed`, so results depend only on
  (spec, group index), never on shard layout, retries, worker count or
  interruption history.

The per-group model is the renewal cycle shared with the closed-form
predictor (:func:`repro.raid.reliability.group_reliability`): wait for
a whole-drive failure, sit degraded for the spare-attach delay, rebuild
for MTTR; lose data to a second failure inside the exposure window or
to a latent sector error met by the rebuild read, whose probability the
scrub policy sets through its latent window.  Each group ends the
mission in exactly one state — ``ok``, ``degraded``, ``rebuilding`` or
``lost`` — and the shard result carries the full conservation ledger
that :func:`repro.verify.fleet.check_shard_result` audits.

A group's failure history is walked **once** and every policy settles
against it.  :func:`~repro.fleet.spec.group_seed` leaves the policy out
(common random numbers), so all policies would replay the same stream
and part ways only where a rebuild-read draw falls under their own
``p_lse``: the walk records that draw at every completed rebuild and a
policy's ledger is the first one it loses, or the walk's own end.  The
per-(policy, group) loop this replaced lives on as the oracle in
:func:`repro.verify.fleet.reference_shard_task`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fleet.spec import (
    _GROUP_STREAM,
    CampaignSpec,
    _group_generators,
    group_profiles,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.worker import PROBE
from repro.raid.reliability import HOURS_PER_YEAR, lse_exposure_probability

__all__ = ["fleet_shard_task", "simulate_group"]


def _walk_group(
    rng: np.random.Generator,
    disks: int,
    redundancy: int,
    mttf_hours: float,
    mttr_hours: float,
    spare_delay_hours: float,
    mission_hours: float,
) -> Tuple[List[Tuple[float, float, int]], Tuple[str, Optional[str], float, int]]:
    """One group's failure history, before any scrub policy is applied.

    Draws ``exponential / exponential / random`` per renewal cycle and
    never stops at a rebuild: each completed rebuild is recorded as a
    checkpoint ``(u, t, failures)`` — the rebuild-read draw, the clock
    and the failure count at that moment — and the walk runs on to its
    own end ``(state, loss_mode, t, failures)``.  A policy only decides
    which checkpoint, if any, is a latent-error loss (:func:`_settle`).

    An exponential draw is ``standard_exponential() * scale``: numpy's
    ``exponential(scale)`` computes exactly that product, so the stream
    and every float are those of ``rng.exponential``.
    """
    lam = 1.0 / mttf_hours
    scale = 1.0 / (disks * lam)
    # A group without redundancy never draws a second failure (and a
    # one-disk group would divide by zero here).
    second_scale = 1.0 / ((disks - 1) * lam) if redundancy else 0.0
    exponential = rng.standard_exponential
    uniform = rng.random
    window = spare_delay_hours + mttr_hours
    t = 0.0
    failures = 0
    checkpoints = []
    state = "ok"
    loss_mode = None
    while True:
        wait = exponential() * scale
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
        second = exponential() * second_scale
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
        checkpoints.append((uniform(), t, failures))
    return checkpoints, (state, loss_mode, t, failures)


def _settle(checkpoints, end, p_lse: float):
    """One policy's ledger for a walked group.

    Returns ``(state, loss_mode, observed_hours, drive_failures,
    rebuilds_completed)``: the first rebuild whose draw falls under
    ``p_lse`` loses the group there, otherwise the walk's own end holds.
    """
    for rebuilds, (u, t, failures) in enumerate(checkpoints):
        if u < p_lse:
            return "lost", "lse", t, failures, rebuilds
    return (*end, len(checkpoints))


def simulate_group(
    rng: np.random.Generator,
    disks: int,
    redundancy: int,
    mttf_hours: float,
    mttr_hours: float,
    spare_delay_hours: float,
    p_lse: float,
    mission_hours: float,
) -> Dict[str, float]:
    """One redundancy group's mission: events until loss or mission end.

    Returns the group's ledger: final ``state``, observed hours (the
    group's clock stops at loss), drive failures, completed rebuilds,
    and the loss mode (``double`` / ``lse`` / ``unprotected``) if any.
    """
    walk = _walk_group(
        rng, disks, redundancy, mttf_hours, mttr_hours, spare_delay_hours,
        mission_hours,
    )
    state, loss_mode, hours, failures, rebuilds = _settle(*walk, p_lse)
    return {
        "state": state,
        "loss_mode": loss_mode,
        "observed_hours": hours,
        "drive_failures": failures,
        "rebuilds_completed": rebuilds,
    }


def fleet_shard_task(
    spec: CampaignSpec,
    shard_index: int,
    group_start: int,
    group_count: int,
    latent_windows: Tuple[float, ...],
) -> dict:
    """Simulate groups ``[group_start, group_start+group_count)``.

    ``latent_windows`` is ``resolve_latent_windows(spec)``, precomputed
    once by the campaign runner so shards skip the schedule replay; it
    is a pure function of the spec, so passing it keeps the cache key
    honest.  The result is a plain dict (pickle/JSON-safe) with one
    ledger per policy plus a telemetry snapshot for fleet-level
    merging.

    Each group is walked once and every policy settles against that
    walk, drawing from ``default_rng(group_seed(spec.seed, group))``
    as built for the whole shard in one batch.  Observability keeps its
    per-(policy, group) shape: the probe total is ``group_count *
    len(policies)`` and advances by ``len(policies)`` per group, and
    ``phases`` has one entry per policy with the shared walk's wall
    time split evenly between them.
    """
    if group_count <= 0:
        raise ValueError(f"group_count must be positive: {group_count}")
    if len(latent_windows) != len(spec.policies):
        raise ValueError(
            f"{len(latent_windows)} latent windows for "
            f"{len(spec.policies)} policies"
        )
    fleet = spec.fleet
    disks = fleet.disks_per_group
    redundancy = fleet.redundancy
    mttr_hours = fleet.mttr_hours
    spare_delay_hours = fleet.spare_delay_hours
    mission_hours = spec.mission_years * HOURS_PER_YEAR
    policy_count = len(spec.policies)
    #: Per policy, one settled ledger row per group, in group order.
    settled: List[list] = [[] for _ in spec.policies]
    #: lse burst rate -> p_lse per policy; one entry per drive class.
    p_lse_by_rate: Dict[float, Tuple[float, ...]] = {}
    # The heartbeat thread samples the probe's two integers, nothing
    # here ever blocks on observability.
    PROBE.reset(group_count * policy_count)
    advance = PROBE.advance
    started = time.perf_counter()
    profiles = group_profiles(fleet, spec.seed, group_start, group_count)
    rngs = _group_generators(spec.seed, _GROUP_STREAM, group_start, group_count)
    for profile, rng in zip(profiles, rngs):
        rate = profile.lse_burst_rate_per_hour
        p_lses = p_lse_by_rate.get(rate)
        if p_lses is None:
            p_lses = p_lse_by_rate[rate] = tuple(
                lse_exposure_probability(disks - 1, rate, window)
                for window in latent_windows
            )
        checkpoints, end = _walk_group(
            rng, disks, redundancy, profile.mttf_hours, mttr_hours,
            spare_delay_hours, mission_hours,
        )
        for rows, p_lse in zip(settled, p_lses):
            rows.append(_settle(checkpoints, end, p_lse))
        advance(policy_count)
    phase_wall = (time.perf_counter() - started) / policy_count

    # Registry calls stay policy-major (every loss of policy 0, then its
    # counters, then policy 1): the histogram's float total depends on
    # observation order, and the snapshot must not move.
    registry = MetricsRegistry()
    policies = []
    for policy, window, rows in zip(spec.policies, latent_windows, settled):
        state_col, mode_col, hours_col, failures_col, rebuilds_col = zip(*rows)
        states = {
            state: state_col.count(state)
            for state in ("ok", "degraded", "rebuilding", "lost")
        }
        losses = {
            mode: mode_col.count(mode)
            for mode in ("double", "lse", "unprotected")
        }
        group_hours = list(hours_col)
        drive_failures = sum(failures_col)
        rebuilds_completed = sum(rebuilds_col)
        for mode, hours in zip(mode_col, hours_col):
            if mode is not None:
                registry.histogram("fleet.time_to_loss_years").observe(
                    hours / HOURS_PER_YEAR
                )
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
                "losses_by_mode": losses,
                "drive_failures": drive_failures,
                "rebuilds_completed": rebuilds_completed,
                "observed_group_hours": observed_group_hours,
                "drive_hours": observed_group_hours * disks,
                "group_hours": group_hours,
                "states": states,
                "latent_window_hours": float(window),
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
        "phases": [
            {"policy": policy.name, "wall_s": phase_wall}
            for policy in spec.policies
        ],
    }
