"""Rebuild-risk analysis: from MLET to data-loss probability.

The paper argues (Section I) that a scrubber's value is the reduction
of the Mean Latent Error Time, because an LSE that survives until a
RAID rebuild loses data.  :class:`RebuildRiskModel` quantifies that
link with a Monte-Carlo model over the scrub schedule:

* LSE bursts arrive on each member disk as a Poisson process;
* the scrubber repairs a sector at its next scheduled visit (per the
  :func:`repro.core.mlet.sector_visit_times` schedule);
* a disk failure at a random time triggers a rebuild, which reads all
  surviving sectors; the rebuild is *exposed* to every LSE whose
  occurrence-to-repair window covers the failure time.

The estimator returns the expected number of unrecoverable sectors per
rebuild and the probability that a rebuild encounters at least one —
directly comparable across scrub orders and rates.

PR 7 adds the *closed-form* side of the same story (Thomasian's RAID
reliability tutorial, Gray & van Ingen's empirical rates):
:func:`group_reliability` predicts MTTDL and mission loss probability
for an n-disk redundancy group from first principles — whole-drive
failure rate, rebuild window, and the scrub-policy-dependent latent
error window — so the fleet Monte-Carlo engine
(:mod:`repro.fleet.montecarlo`) has an analytic model to calibrate
against.  Both share the cycle model::

    OK --(drive failure, rate n*lam)--> degraded/rebuilding
       --(second failure within spare_delay+mttr)--------> data loss
       --(latent error met by the rebuild read, p_lse)---> data loss
       --(otherwise)-------------------------------------> OK again

and the scrub policy enters exactly where the paper says it should:
through the mean latent error time, which sets how many unrepaired
LSEs a rebuild read is exposed to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.mlet import generate_bursts
from repro.raid.units import HOURS_PER_YEAR  # re-exported: the fleet's unit


@dataclass(frozen=True)
class RebuildRisk:
    """Monte-Carlo estimate of rebuild exposure."""

    expected_exposed_sectors: float
    loss_probability: float
    trials: int
    bursts_per_trial: float


class RebuildRiskModel:
    """Risk of a rebuild meeting an unrepaired LSE, per scrub schedule.

    Parameters
    ----------
    visit_times, pass_duration:
        The scrub schedule from
        :func:`repro.core.mlet.sector_visit_times` — when each sector
        of the (surviving) disk is verified within a repeating pass.
    burst_rate:
        LSE bursts per second per disk.
    mean_burst_length, max_burst_length:
        Spatial burst extent (sectors).
    """

    def __init__(
        self,
        visit_times: np.ndarray,
        pass_duration: float,
        burst_rate: float,
        mean_burst_length: float = 32.0,
        max_burst_length: int = 4096,
    ) -> None:
        if pass_duration <= 0:
            raise ValueError(f"pass_duration must be positive: {pass_duration}")
        if burst_rate <= 0:
            raise ValueError(f"burst_rate must be positive: {burst_rate}")
        self.visit_times = np.asarray(visit_times, dtype=float)
        self.pass_duration = pass_duration
        self.burst_rate = burst_rate
        self.mean_burst_length = mean_burst_length
        self.max_burst_length = max_burst_length

    def simulate(
        self,
        rng: np.random.Generator,
        trials: int = 500,
        horizon: float = None,
    ) -> RebuildRisk:
        """Monte-Carlo over failure times and LSE arrivals.

        Each trial: LSEs arrive over ``horizon`` seconds (default ten
        scrub passes), a failure hits at a uniform time, and every bad
        sector not yet repaired is exposed.

        A burst is repaired at its *earliest-visited* sector, which is
        what real systems do on detection: the first verified bad
        sector of a burst triggers reconstruction of the whole
        neighbourhood — this is where staggered scrubbing's
        early-probing pays off.
        """
        if trials <= 0:
            raise ValueError(f"trials must be positive: {trials}")
        if horizon is None:
            horizon = 10 * self.pass_duration
        total_sectors = len(self.visit_times)
        exposed_counts = np.zeros(trials)
        bursts_seen = 0
        for trial in range(trials):
            count = rng.poisson(self.burst_rate * horizon)
            if count == 0:
                continue
            bursts = generate_bursts(
                rng,
                total_sectors,
                count,
                horizon,
                mean_length=self.mean_burst_length,
                max_length=self.max_burst_length,
            )
            bursts_seen += count
            failure_time = rng.random() * horizon
            exposed = 0
            for burst in bursts:
                if burst.time > failure_time:
                    continue  # occurred after the failure
                visits = self.visit_times[
                    burst.start_sector : burst.start_sector + burst.length
                ]
                phase = burst.time % self.pass_duration
                repair_delay = (visits - phase) % self.pass_duration
                detection = burst.time + float(repair_delay.min())
                if detection > failure_time:
                    exposed += burst.length
            exposed_counts[trial] = exposed
        return RebuildRisk(
            expected_exposed_sectors=float(exposed_counts.mean()),
            loss_probability=float((exposed_counts > 0).mean()),
            trials=trials,
            bursts_per_trial=bursts_seen / trials,
        )


# -- closed-form fleet calibration (PR 7) -----------------------------------


def lse_exposure_probability(
    surviving_disks: int,
    lse_burst_rate_per_hour: float,
    latent_window_hours: float,
) -> float:
    """Probability a rebuild read meets >= 1 unrepaired latent error.

    LSE bursts arrive on each disk as a Poisson process; a burst stays
    latent (undetected, unrepaired) for the scrub policy's mean latent
    error time.  By PASTA, the number of latent bursts standing on the
    ``surviving_disks`` drives a rebuild must read is Poisson with mean
    ``surviving_disks * rate * window``; data loss needs at least one.
    """
    if surviving_disks < 0:
        raise ValueError(f"surviving_disks must be >= 0: {surviving_disks}")
    if lse_burst_rate_per_hour < 0 or latent_window_hours < 0:
        raise ValueError("rate and latent window must be non-negative")
    mean = surviving_disks * lse_burst_rate_per_hour * latent_window_hours
    return 1.0 - math.exp(-mean)


@dataclass(frozen=True)
class GroupReliability:
    """Closed-form reliability of one redundancy group."""

    #: Mean time to data loss of the group, hours.
    mttdl_hours: float
    #: 1 / MTTDL — the group's long-run data-loss rate per hour.
    loss_rate_per_hour: float
    #: Probability of >= 1 data-loss event over the mission.
    p_loss_mission: float
    #: Probability a triggered rebuild ends in data loss (either mode).
    p_rebuild_failure: float
    #: ... via a second whole-drive failure inside the rebuild window.
    p_double_failure: float
    #: ... via a latent sector error met by the rebuild read.
    p_lse_exposure: float


def group_reliability(
    disks: int,
    mttf_hours: float,
    mttr_hours: float,
    mission_hours: float,
    spare_delay_hours: float = 0.0,
    lse_burst_rate_per_hour: float = 0.0,
    latent_window_hours: float = 0.0,
    redundancy: int = 1,
) -> GroupReliability:
    """Closed-form MTTDL for an n-disk group tolerating one failure.

    The renewal-cycle model (Thomasian): the group waits
    ``Exp(disks/mttf)`` for a failure, sits exposed for
    ``spare_delay + mttr`` while a spare attaches and rebuilds, and
    loses data if a second drive fails inside that window *or* the
    rebuild read trips an unrepaired LSE
    (:func:`lse_exposure_probability`); otherwise the cycle restarts.
    With per-rebuild failure probability ``P`` and mean cycle length
    ``1/(n*lam) + spare_delay + mttr``::

        MTTDL = cycle / P
        P(loss over mission) = 1 - exp(-mission / MTTDL)

    ``redundancy=0`` (a single drive, or RAID-0) degenerates to
    ``MTTDL = mttf / disks``.  Valid in the ``mttr << mttf`` regime the
    fleet simulates; the Monte-Carlo cross-check
    (``tests/test_fleet_reliability.py``) holds it to the simulator's
    confidence interval.
    """
    if disks < 1:
        raise ValueError(f"disks must be >= 1: {disks}")
    if mttf_hours <= 0 or mttr_hours < 0 or mission_hours <= 0:
        raise ValueError("mttf/mission must be positive, mttr non-negative")
    lam = 1.0 / mttf_hours
    if redundancy == 0 or disks == 1:
        rate = disks * lam
        mttdl = 1.0 / rate
        return GroupReliability(
            mttdl_hours=mttdl,
            loss_rate_per_hour=rate,
            p_loss_mission=1.0 - math.exp(-mission_hours * rate),
            p_rebuild_failure=1.0,
            p_double_failure=0.0,
            p_lse_exposure=0.0,
        )
    window = spare_delay_hours + mttr_hours
    p_double = 1.0 - math.exp(-(disks - 1) * lam * window)
    p_lse = lse_exposure_probability(
        disks - 1, lse_burst_rate_per_hour, latent_window_hours
    )
    p_fail = p_double + (1.0 - p_double) * p_lse
    cycle = 1.0 / (disks * lam) + window
    if p_fail <= 0.0:
        mttdl = math.inf
        return GroupReliability(
            mttdl_hours=mttdl,
            loss_rate_per_hour=0.0,
            p_loss_mission=0.0,
            p_rebuild_failure=0.0,
            p_double_failure=0.0,
            p_lse_exposure=0.0,
        )
    mttdl = cycle / p_fail
    return GroupReliability(
        mttdl_hours=mttdl,
        loss_rate_per_hour=1.0 / mttdl,
        p_loss_mission=1.0 - math.exp(-mission_hours / mttdl),
        p_rebuild_failure=p_fail,
        p_double_failure=p_double,
        p_lse_exposure=p_lse,
    )
