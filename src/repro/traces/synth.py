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

import warnings
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

#: Arrivals per block of whole bursts in ``_bursty_times``: its working
#: arrays stay about a megabyte each however long the trace.
_BLOCK = 1 << 17


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


def _continued_cumsum(carry: float, values: np.ndarray) -> np.ndarray:
    """``[carry, carry + v0, (carry + v0) + v1, ...]``.

    ``np.cumsum`` adds left to right, so continuing from the last value
    of the cumsum before performs exactly the additions of one cumsum
    over everything: blocks reproduce the whole bit for bit.
    """
    return np.cumsum(np.concatenate(([carry], values)))


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
        )
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
    def _warn_ran_dry(self, stop: float) -> None:
        """The draw was sized blind and ended before ``duration``."""
        p = self.profile
        warnings.warn(
            f"trace {p.name!r} ran out of arrivals at {stop:.6g} s of the "
            f"{p.duration:g} s asked for: nothing arrives after that",
            RuntimeWarning,
            stacklevel=4,  # whoever called generate()
        )

    def _poisson_times(self) -> np.ndarray:
        p = self.profile
        expected = p.rate * p.duration
        gaps = self.rng.exponential(1.0 / p.rate, size=int(expected * 1.05) + 10)
        times = np.cumsum(gaps)
        if times[-1] < p.duration:
            self._warn_ran_dry(times[-1])
        return times[times < p.duration]

    def _bursty_times(self) -> np.ndarray:
        """ON/OFF bursts in operational time, warped for periodicity.

        One gap and one length per burst are drawn for the whole
        estimate up front; arrivals are then formed a block of whole
        bursts at a time, every running sum continued from the block
        before (the same additions in the same order as one pass over
        the whole draw).  Arrivals come in time order, so the first
        block that drops one ends the arithmetic.
        """
        p = self.profile
        mu, sigma = _lognormal_params(p.idle_gap_mean, p.idle_gap_cov)
        mean_burst_duration = p.burst_len_mean * p.intra_gap_mean
        mean_cycle = p.idle_gap_mean + mean_burst_duration
        n_bursts = int(p.duration / mean_cycle * 1.3) + 10

        gaps = self._correlated_lognormal(mu, sigma, n_bursts)
        # Geometric lengths with the requested mean (support >= 1).
        success = min(1.0, 1.0 / p.burst_len_mean)
        lengths = self.rng.geometric(success, size=n_bursts)
        burst_ends = np.cumsum(lengths)
        gap_sums = np.cumsum(gaps)
        knots = self._warp_knots()

        # Sized for the draw and trimmed at the end: the pages past the
        # last arrival kept are never written, so never resident.
        times = np.empty(int(burst_ends[-1]))
        kept = 0
        intra_sum = 0.0  # every intra gap of the blocks before, summed
        duration_sum = 0.0  # every burst duration of the blocks before
        first = drawn = 0  # bursts / arrivals in the blocks before
        reached = False  # a block dropped an arrival: the rest is later
        while first < n_bursts:
            last = max(first + 1, int(np.searchsorted(
                burst_ends, drawn + _BLOCK, side="right"
            )))
            count = int(burst_ends[last - 1]) - drawn
            # Drawn even when unused: sizes, addresses and write flags
            # come next on this stream.
            intra = self.rng.exponential(p.intra_gap_mean, size=count)
            if not reached:
                block_lengths = lengths[first:last]
                ends = burst_ends[first:last] - drawn
                starts = ends - block_lengths
                # Offsets of each arrival inside its burst (cumsum with resets).
                running = _continued_cumsum(intra_sum, intra)[1:]
                intra_sum = running[-1]
                base = running[starts] - intra[starts]
                prior_durations = _continued_cumsum(
                    duration_sum, running[ends - 1] - base
                )
                duration_sum = prior_durations[-1]
                running -= np.repeat(base, block_lengths)
                running += np.repeat(
                    gap_sums[first:last] + prior_durations[:-1], block_lengths
                )
                if knots is not None:
                    running = np.interp(running, *knots)
                keep = running[running < p.duration]
                times[kept:kept + len(keep)] = keep
                kept += len(keep)
                reached = len(keep) < count
            first, drawn = last, drawn + count
        if not reached:
            self._warn_ran_dry(times[kept - 1])
        times.resize(kept, refcheck=False)
        return times

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

    def _warp_knots(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Knots mapping operational time to wall time via the rate profile.

        The cumulative intensity ``L(t) = integral of h`` is piecewise
        linear over hours; arrivals generated in operational time ``s``
        land at wall time ``L^{-1}(s)`` (``np.interp(s, *knots)``),
        concentrating them in high-multiplier hours.  ``None`` for a
        flat profile: warping is the identity.
        """
        p = self.profile
        profile = np.asarray(p.hourly_profile, dtype=float)
        if np.allclose(profile, profile[0]):
            return None
        profile = profile / profile.mean()
        hour = p.period_hours * 3600.0 / len(profile)
        n_hours = int(np.ceil(p.duration / hour)) + len(profile) + 1
        multipliers = np.tile(profile, -(-n_hours // len(profile)))[:n_hours]
        wall_knots = np.arange(n_hours + 1) * hour
        operational_knots = np.concatenate(
            ([0.0], np.cumsum(multipliers * hour))
        )
        return operational_knots, wall_knots

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

        # Run-relative offsets: cumsum of sizes with a reset at each
        # jump.  All int64, so one array updated in place is exact.
        lbns = np.zeros(n, dtype=np.int64)
        np.cumsum(sectors[:-1], out=lbns[1:])
        run_ids = np.cumsum(is_jump)
        run_ids -= 1
        lbns -= lbns[np.flatnonzero(is_jump)][run_ids]
        lbns += jump_targets[run_ids]
        # Wrap runs that fall off the end of the disk.
        limit = p.capacity_sectors - int(sectors.max())
        return np.mod(lbns, max(1, limit), out=lbns)

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
