"""Synthetic block-trace generation.

The paper's scheduling results (Section V) rest on four statistical
properties of real disk workloads, all of which this generator
reproduces and the :mod:`repro.stats` package verifies:

* **Periodicity** (Fig. 8, 9): arrival intensity follows an hourly
  profile repeating every ``period_hours`` (diurnal by default),
  implemented as an inhomogeneous time-change of a stationary process.
* **Autocorrelation**: arrivals come in bursts (ON/OFF), so successive
  inter-arrival intervals are positively correlated.
* **High CoV / heavy tails with decreasing hazard rates** (Table II,
  Fig. 10–13): OFF gaps are lognormal — a subexponential distribution
  whose hazard rate decreases in the tail, concentrating most idle
  time in a few long intervals.
* **Memorylessness for TPC-C** (Table II): an alternative pure-Poisson
  mode with CoV ≈ 1.

Address streams mix sequential runs with jumps into weighted hot
regions, and request sizes/write ratios are configurable, so the same
traces drive both statistical analysis and full-stack replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.traces.record import Trace

#: Activity multiplier per hour-of-day (mean ~1): office-hours shape.
OFFICE_HOURS = (
    0.25, 0.2, 0.15, 0.15, 0.2, 0.3, 0.6, 1.2, 1.8, 2.2, 2.3, 2.2,
    1.9, 2.1, 2.2, 2.1, 1.9, 1.5, 1.0, 0.7, 0.5, 0.4, 0.35, 0.3,
)
#: Overnight batch/backup shape (spike at 02:00, as in HP Cello).
NIGHTLY_BATCH = (
    1.0, 2.5, 6.0, 2.0, 0.8, 0.6, 0.6, 0.8, 1.0, 1.0, 1.0, 1.0,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.8, 0.8, 0.8, 0.9, 1.0,
)
#: Featureless profile (no periodicity).
FLAT = tuple([1.0] * 24)


@dataclass(frozen=True)
class TraceProfile:
    """Parameter set for one synthetic disk workload.

    The generator alternates heavy-tailed OFF gaps with bursts of
    closely spaced requests; ``memoryless=True`` replaces all of that
    with a plain Poisson process (the TPC-C mode).
    """

    name: str
    description: str = ""
    duration: float = 86_400.0
    #: Mean and coefficient of variation of the lognormal OFF gaps.
    idle_gap_mean: float = 0.3
    idle_gap_cov: float = 15.0
    #: AR(1) coefficient of successive log-gaps: recent idle lengths
    #: predict upcoming ones (the autocorrelation the paper's AR policy
    #: tries to exploit).  0 gives independent gaps.
    gap_autocorr: float = 0.5
    #: Mean burst length (geometric) and intra-burst gap (exponential).
    burst_len_mean: float = 40.0
    intra_gap_mean: float = 0.002
    #: Hour-of-day activity multipliers and the repeat period.
    hourly_profile: Tuple[float, ...] = OFFICE_HOURS
    period_hours: float = 24.0
    #: Poisson mode (TPC-C): ignore burst/gap fields, use ``rate``.
    memoryless: bool = False
    rate: float = 700.0
    #: Address/size/op mix.
    capacity_sectors: int = 585_937_500  # 300 GB
    write_fraction: float = 0.3
    seq_prob: float = 0.6
    size_choices: Tuple[int, ...] = (8, 16, 32, 64, 128)
    size_weights: Tuple[float, ...] = (0.3, 0.25, 0.2, 0.15, 0.1)
    #: Hot regions: (centre fraction, width fraction, weight).
    hot_spots: Tuple[Tuple[float, float, float], ...] = (
        (0.1, 0.15, 0.5),
        (0.45, 0.2, 0.3),
        (0.8, 0.3, 0.2),
    )

    def with_overrides(self, **kwargs) -> "TraceProfile":
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.idle_gap_mean <= 0 or self.idle_gap_cov <= 0:
            raise ValueError("idle gap parameters must be positive")
        if self.burst_len_mean < 1:
            raise ValueError("burst_len_mean must be >= 1")
        if not 0.0 <= self.gap_autocorr < 1.0:
            raise ValueError("gap_autocorr must lie in [0, 1)")
        if len(self.hourly_profile) == 0:
            raise ValueError("hourly_profile must be non-empty")
        if len(self.size_choices) != len(self.size_weights):
            raise ValueError("size_choices and size_weights lengths differ")
        if not 0 <= self.write_fraction <= 1 or not 0 <= self.seq_prob <= 1:
            raise ValueError("fractions must lie in [0, 1]")


def _lognormal_params(mean: float, cov: float) -> Tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and CoV."""
    sigma2 = np.log1p(cov * cov)
    mu = np.log(mean) - sigma2 / 2.0
    return mu, float(np.sqrt(sigma2))


class SyntheticTraceGenerator:
    """Generates :class:`~repro.traces.record.Trace` objects from a profile."""

    def __init__(self, profile: TraceProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self.rng = rng

    # -- public ------------------------------------------------------------
    def generate(self) -> Trace:
        p = self.profile
        if p.memoryless:
            times = self._poisson_times()
        else:
            times = self._bursty_times()
        n = len(times)
        sectors = self.rng.choice(
            p.size_choices,
            size=n,
            p=np.asarray(p.size_weights) / np.sum(p.size_weights),
        ).astype(np.int64)
        lbns = self._addresses(sectors)
        is_write = self.rng.random(n) < p.write_fraction
        return Trace(
            times,
            lbns,
            sectors,
            is_write,
            name=p.name,
            description=p.description,
            capacity_sectors=p.capacity_sectors,
        )

    # -- arrival processes ------------------------------------------------------
    def _poisson_times(self) -> np.ndarray:
        p = self.profile
        expected = p.rate * p.duration
        gaps = self.rng.exponential(1.0 / p.rate, size=int(expected * 1.05) + 10)
        times = np.cumsum(gaps)
        return times[times < p.duration]

    def _bursty_times(self) -> np.ndarray:
        """ON/OFF bursts in operational time, warped for periodicity."""
        p = self.profile
        mu, sigma = _lognormal_params(p.idle_gap_mean, p.idle_gap_cov)
        mean_burst_duration = p.burst_len_mean * p.intra_gap_mean
        mean_cycle = p.idle_gap_mean + mean_burst_duration
        n_bursts = int(p.duration / mean_cycle * 1.3) + 10

        gaps = self._correlated_lognormal(mu, sigma, n_bursts)
        # Geometric lengths with the requested mean (support >= 1).
        success = min(1.0, 1.0 / p.burst_len_mean)
        lengths = self.rng.geometric(success, size=n_bursts)
        total = int(lengths.sum())
        intra = self.rng.exponential(p.intra_gap_mean, size=total)

        # Offsets of each arrival inside its burst (cumsum with resets).
        burst_ends = np.cumsum(lengths)
        burst_starts_idx = burst_ends - lengths
        running = np.cumsum(intra)
        base = np.repeat(
            running[burst_starts_idx] - intra[burst_starts_idx], lengths
        )
        offsets = running - base

        burst_durations = running[burst_ends - 1] - (
            running[burst_starts_idx] - intra[burst_starts_idx]
        )
        prior_durations = np.concatenate(([0.0], np.cumsum(burst_durations[:-1])))
        burst_start_times = np.cumsum(gaps) + prior_durations
        times = np.repeat(burst_start_times, lengths) + offsets

        times = self._warp(times)
        return times[times < p.duration]

    def _correlated_lognormal(
        self, mu: float, sigma: float, count: int
    ) -> np.ndarray:
        """Lognormal gaps whose logs follow an AR(1) with the profile's
        ``gap_autocorr`` — the stationary marginal stays lognormal(mu, sigma)."""
        phi = self.profile.gap_autocorr
        if phi == 0.0 or count == 0:
            return self.rng.lognormal(mu, sigma, size=count)
        noise_sigma = sigma * np.sqrt(1.0 - phi * phi)
        noise = self.rng.normal(0.0, noise_sigma, size=count)
        noise[0] = self.rng.normal(0.0, sigma)  # start in stationarity
        # AR(1) recursion y[n] = x[n] + phi*y[n-1]: one multiply and one add,
        # each rounded, per gap -- only burst gaps come here (thousands a trace).
        recursion = accumulate(noise.tolist(), lambda y, x: x + phi * y)
        logs = np.fromiter(recursion, dtype=float, count=count)
        return np.exp(mu + logs)

    def _warp(self, operational_times: np.ndarray) -> np.ndarray:
        """Map operational time to wall time via the rate profile.

        The cumulative intensity ``L(t) = integral of h`` is piecewise
        linear over hours; arrivals generated in operational time ``s``
        land at wall time ``L^{-1}(s)``, concentrating them in
        high-multiplier hours.
        """
        p = self.profile
        profile = np.asarray(p.hourly_profile, dtype=float)
        if np.allclose(profile, profile[0]):
            return operational_times  # flat: warping is the identity
        profile = profile / profile.mean()
        hour = p.period_hours * 3600.0 / len(profile)
        n_hours = int(np.ceil(p.duration / hour)) + len(profile) + 1
        multipliers = np.tile(profile, -(-n_hours // len(profile)))[:n_hours]
        wall_knots = np.arange(n_hours + 1) * hour
        operational_knots = np.concatenate(
            ([0.0], np.cumsum(multipliers * hour))
        )
        return np.interp(operational_times, operational_knots, wall_knots)

    # -- addresses -----------------------------------------------------------------
    def _addresses(self, sectors: np.ndarray) -> np.ndarray:
        """Sequential runs interleaved with jumps into hot regions."""
        p = self.profile
        n = len(sectors)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        is_jump = self.rng.random(n) >= p.seq_prob
        is_jump[0] = True
        jump_targets = self._jump_targets(int(is_jump.sum()))

        # Run-relative offsets: cumsum of sizes with a reset at each jump.
        shifted = np.concatenate(([0], sectors[:-1]))
        running = np.cumsum(shifted)
        jump_idx = np.flatnonzero(is_jump)
        run_ids = np.cumsum(is_jump) - 1
        base = running[jump_idx][run_ids]
        offsets = running - base
        lbns = jump_targets[run_ids] + offsets
        # Wrap runs that fall off the end of the disk.
        limit = p.capacity_sectors - int(sectors.max())
        return np.mod(lbns, max(1, limit)).astype(np.int64)

    def _jump_targets(self, count: int) -> np.ndarray:
        p = self.profile
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        spots = np.asarray(p.hot_spots, dtype=float)
        weights = spots[:, 2] / spots[:, 2].sum()
        chosen = self.rng.choice(len(spots), size=count, p=weights)
        centres = spots[chosen, 0]
        widths = spots[chosen, 1]
        fractions = centres + (self.rng.random(count) - 0.5) * widths
        fractions = np.clip(fractions, 0.0, 1.0)
        return (fractions * (p.capacity_sectors - 1)).astype(np.int64)
