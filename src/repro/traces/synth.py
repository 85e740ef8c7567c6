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

Every value comes from one stream in a fixed order (DESIGN §19), and
every stage runs as whole-array passes: arrivals a block of bursts at
a time, sizes and hot spots as categorical draws counted against the
CDF (:func:`_categorical`, the bits of ``Generator.choice(p=...)``),
addresses and jump targets in place.  Addresses and write flags, the
last draws, are made on the trace's first read of them, from the
stream's state saved after the sizes: analyses that read only arrival
times and sizes never synthesise them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
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

#: Bursts from which ``_correlated_lognormal`` runs its AR(1) recursion
#: through ``scipy.signal.lfilter`` (the same multiply and add per gap,
#: in C) instead of a Python loop: above every catalog trace of a few
#: hours (MSRsrc11 at 6 h draws 51.6k), below multi-day disks (1.1M+).
_LFILTER_BURSTS = 1 << 18


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


def _checked(probabilities) -> np.ndarray:
    """``probabilities`` as floats; ``ValueError`` where ``choice`` raises:
    a negative or NaN probability, or a sum away from 1."""
    probabilities = np.asarray(probabilities, dtype=float)
    if not (
        np.all(probabilities >= 0.0)
        and abs(probabilities.sum() - 1.0) <= np.sqrt(np.finfo(float).eps)
    ):
        raise ValueError(
            f"probabilities must be non-negative and sum to 1: {probabilities}"
        )
    return probabilities


def _categorical(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``size`` int64 indices drawn with ``probabilities``: the values,
    dtype and stream position of ``rng.choice(len(probabilities), size,
    p=probabilities)``.

    ``choice`` draws one ``random()`` per value and binary-searches the
    normalised CDF (``searchsorted(side="right")``): the index is the
    number of edges the uniform reaches, and a uniform never reaches
    the last edge, 1.0.  Counting the interior edges gives that number
    without the search, one array pass per edge: meant for the handful
    of weights a profile has.  Raises ``ValueError`` where ``choice``
    does: a negative or NaN probability, or a sum away from 1.
    """
    cdf = np.cumsum(_checked(probabilities))
    cdf /= cdf[-1]
    uniforms = rng.random(size)
    index = np.zeros(size, dtype=np.min_scalar_type(len(cdf) - 1))
    for edge in cdf[:-1]:
        index += uniforms >= edge
    return index.astype(np.int64)


class SyntheticTraceGenerator:
    """Generates :class:`~repro.traces.record.Trace` objects from a profile."""

    def __init__(self, profile: TraceProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self.rng = rng

    # -- public ------------------------------------------------------------
    def generate(self) -> Trace:
        """The profile's trace, its addresses and write flags still undrawn.

        The sizes are the last draw made here, so ``self.rng`` stands
        after them.  The address and write-flag draws come next on the
        stream; they run on the first read of ``trace.lbns`` or
        ``trace.is_write``, from a generator restored to the state the
        stream has now.  Each column is therefore what an eager draw
        gives, whatever is drawn from ``self.rng`` in between.
        """
        p = self.profile
        if p.memoryless:
            times = self._poisson_times()
        else:
            times = self._bursty_times()
        n = len(times)
        sizes = _categorical(
            self.rng, np.asarray(p.size_weights) / np.sum(p.size_weights), n
        )
        sectors = np.asarray(p.size_choices).take(sizes)
        # Bad hot-spot weights raise here, not at the first read.
        weights = np.asarray(p.hot_spots, dtype=float).reshape(-1, 3)[:, 2]
        _checked(weights / weights.sum())
        # The state, not the generator: the stream may be a wrapper.
        bit_generator = self.rng.bit_generator
        return Trace(
            times,
            None,
            sectors,
            None,
            name=p.name,
            description=p.description,
            capacity_sectors=p.capacity_sectors,
            draw=partial(
                _addresses_and_writes,
                p, type(bit_generator), bit_generator.state, sectors,
            ),
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
        times = self.rng.exponential(1.0 / p.rate, size=int(expected * 1.05) + 10)
        np.cumsum(times, out=times)
        if times[-1] < p.duration:
            self._warn_ran_dry(times[-1])
        # Gaps are non-negative: the arrivals before ``duration`` are a prefix.
        times.resize(int(np.searchsorted(times, p.duration)), refcheck=False)
        return times

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
        # each rounded, per gap.  lfilter does the same in C; scipy.signal
        # is imported only for draws long enough to repay its import.
        if count >= _LFILTER_BURSTS:
            from scipy.signal import lfilter

            logs = lfilter([1.0], [1.0, -phi], noise)
        else:
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
        jumps = np.flatnonzero(is_jump)
        jump_targets = self._jump_targets(len(jumps))

        # Offsets from the first request, then each run shifted from its
        # first request's offset to its target.  All int64: exact in any
        # order.
        lbns = np.zeros(n, dtype=np.int64)
        np.cumsum(sectors[:-1], out=lbns[1:])
        jump_targets -= lbns.take(jumps)
        lbns += np.repeat(jump_targets, np.diff(jumps, append=n))
        # Wrap runs that fall off the end of the disk.  Addresses are
        # non-negative, so the modulo changes only those past the limit.
        limit = max(1, p.capacity_sectors - int(sectors.max()))
        return np.mod(lbns, limit, out=lbns, where=lbns >= limit)

    def _jump_targets(self, count: int) -> np.ndarray:
        p = self.profile
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        centres, widths, weights = np.asarray(p.hot_spots, dtype=float).T
        chosen = _categorical(self.rng, weights / weights.sum(), count)
        # centre + (uniform - 0.5) * width, clipped to [0, 1], formed in
        # place: float addition and multiplication commute.
        fractions = self.rng.random(count)
        fractions -= 0.5
        fractions *= widths.take(chosen)
        fractions += centres.take(chosen)
        np.maximum(fractions, 0.0, out=fractions)
        np.minimum(fractions, 1.0, out=fractions)
        fractions *= p.capacity_sectors - 1
        return fractions.astype(np.int64)


def _addresses_and_writes(
    profile: TraceProfile, bit_generator_type, state: dict, sectors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lbns, is_write)`` of a generated trace, drawn from a stream
    restored to ``state``: the draws ``generate`` leaves for the first
    read, the same values every time they run."""
    bit_generator = bit_generator_type()
    bit_generator.state = state
    later = SyntheticTraceGenerator(profile, np.random.Generator(bit_generator))
    lbns = later._addresses(sectors)
    return lbns, later.rng.random(len(sectors)) < profile.write_fraction
