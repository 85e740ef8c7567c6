"""Deterministic latent-sector-error (LSE) fault plans.

A :class:`FaultPlan` is the *complete, pre-drawn* schedule of sector
errors for one simulated drive: every error's onset time and LBN, fixed
before the simulation starts.  Plans are plain frozen dataclasses of
tuples, so they pickle across process boundaries and canonicalise into
:class:`~repro.parallel.cache.ResultCache` keys — a parallel sweep over
fault plans is bit-identical to a serial one because the plan itself,
not the worker, carries all the randomness.

Two generators cover the regimes the measurement literature describes:

* :class:`BernoulliFaultModel` — the classic independence baseline:
  each sector fails independently with a small probability over the
  horizon, onsets uniform in time (Gray & van Ingen's per-sector error
  rates).
* :class:`ClusteredBurstFaultModel` — the regime scrub-order design
  actually targets (Bairavasundaram et al., Oprea & Juels): errors
  arrive in *bursts* that are tight in both time and LBN space, with
  configurable inter-burst and in-burst distributions.

Both are pure functions of ``(total_sectors, horizon, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class SectorError:
    """One latent sector error: sector ``lbn`` becomes unreadable at ``time``."""

    time: float
    lbn: int


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of sector errors for one drive.

    ``errors`` is sorted by onset time and contains at most one entry
    per LBN (an already-bad sector cannot fail again; the earliest
    onset wins).
    """

    total_sectors: int
    horizon: float
    errors: Tuple[SectorError, ...]

    def __post_init__(self) -> None:
        if self.total_sectors <= 0:
            raise ValueError(f"total_sectors must be positive: {self.total_sectors}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive: {self.horizon}")
        for error in self.errors:
            if not 0 <= error.lbn < self.total_sectors:
                raise ValueError(
                    f"error LBN {error.lbn} outside drive of "
                    f"{self.total_sectors} sectors"
                )
            if error.time < 0:
                raise ValueError(f"negative error onset: {error.time}")

    def __len__(self) -> int:
        return len(self.errors)

    @property
    def lbns(self) -> Tuple[int, ...]:
        return tuple(e.lbn for e in self.errors)


def _dedupe_and_sort(
    times: np.ndarray, lbns: np.ndarray, total_sectors: int, horizon: float
) -> FaultPlan:
    """Build a plan keeping the earliest onset per LBN, time-sorted."""
    earliest: Dict[int, float] = {}
    for t, lbn in zip(times, lbns):
        lbn = int(lbn)
        t = float(t)
        if lbn not in earliest or t < earliest[lbn]:
            earliest[lbn] = t
    events = sorted(
        (SectorError(time=t, lbn=lbn) for lbn, t in earliest.items()),
        key=lambda e: (e.time, e.lbn),
    )
    return FaultPlan(
        total_sectors=total_sectors, horizon=horizon, errors=tuple(events)
    )


@dataclass(frozen=True)
class BernoulliFaultModel:
    """Independent per-sector errors, uniform onsets (the baseline).

    Parameters
    ----------
    per_sector_probability:
        Probability that any given sector develops an LSE somewhere in
        the horizon.  The number of errors is Binomial(total, p), their
        locations uniform without replacement, their onsets uniform in
        ``[0, horizon)``.
    """

    per_sector_probability: float = 1e-5

    def __post_init__(self) -> None:
        if not 0 <= self.per_sector_probability <= 1:
            raise ValueError(
                f"per_sector_probability must be in [0, 1]: "
                f"{self.per_sector_probability}"
            )

    def generate(self, total_sectors: int, horizon: float, seed: int) -> FaultPlan:
        rng = np.random.default_rng(seed)
        count = int(rng.binomial(total_sectors, self.per_sector_probability))
        count = min(count, total_sectors)
        lbns = rng.choice(total_sectors, size=count, replace=False)
        times = rng.random(count) * horizon
        return _dedupe_and_sort(times, lbns, total_sectors, horizon)


@dataclass(frozen=True)
class ClusteredBurstFaultModel:
    """Spatially/temporally clustered LSE bursts.

    Bursts start as a Poisson process in time (exponential inter-burst
    gaps of mean ``inter_burst_mean``) at uniform disk locations.  A
    burst contains ``1 + Geometric`` errors (mean ``mean_burst_length``,
    capped at ``max_burst_length``); consecutive errors in a burst are
    separated by ``1 + Geometric`` sectors (mean spatial gap
    ``spatial_gap_mean``; 1 = strictly contiguous) and by exponential
    time gaps of mean ``in_burst_time_mean`` — tight clusters in both
    dimensions, the regime where staggered scrubbing and Waiting earn
    their keep.
    """

    inter_burst_mean: float = 60.0
    mean_burst_length: float = 8.0
    max_burst_length: int = 256
    spatial_gap_mean: float = 1.0
    in_burst_time_mean: float = 0.5

    def __post_init__(self) -> None:
        if self.inter_burst_mean <= 0:
            raise ValueError(
                f"inter_burst_mean must be positive: {self.inter_burst_mean}"
            )
        if self.mean_burst_length < 1:
            raise ValueError(
                f"mean_burst_length must be >= 1: {self.mean_burst_length}"
            )
        if self.max_burst_length < 1:
            raise ValueError(
                f"max_burst_length must be >= 1: {self.max_burst_length}"
            )
        if self.spatial_gap_mean < 1:
            raise ValueError(
                f"spatial_gap_mean must be >= 1: {self.spatial_gap_mean}"
            )
        if self.in_burst_time_mean < 0:
            raise ValueError(
                f"in_burst_time_mean must be non-negative: {self.in_burst_time_mean}"
            )

    def generate(self, total_sectors: int, horizon: float, seed: int) -> FaultPlan:
        rng = np.random.default_rng(seed)
        times_out = []
        lbns_out = []
        now = float(rng.exponential(self.inter_burst_mean))
        while now < horizon:
            start = int(rng.integers(0, total_sectors))
            length = 1
            if self.mean_burst_length > 1:
                length = int(
                    min(
                        1 + rng.geometric(1.0 / self.mean_burst_length),
                        self.max_burst_length,
                    )
                )
            lbn = start
            t = now
            for _ in range(length):
                if lbn >= total_sectors:
                    break
                times_out.append(t)
                lbns_out.append(lbn)
                gap = 1
                if self.spatial_gap_mean > 1:
                    gap = int(rng.geometric(1.0 / self.spatial_gap_mean))
                lbn += max(1, gap)
                if self.in_burst_time_mean > 0:
                    t += float(rng.exponential(self.in_burst_time_mean))
            now += float(rng.exponential(self.inter_burst_mean))
        return _dedupe_and_sort(
            np.asarray(times_out, dtype=float),
            np.asarray(lbns_out, dtype=np.int64),
            total_sectors,
            horizon,
        )


#: Model registry for CLI / sweep-task construction by name.
MODELS = {
    "bernoulli": BernoulliFaultModel,
    "bursts": ClusteredBurstFaultModel,
}


def build_model(name: str, **params):
    """Construct a fault model by registry name (CLI / sweep tasks)."""
    if name not in MODELS:
        raise ValueError(
            f"unknown fault model {name!r}; choose from {', '.join(sorted(MODELS))}"
        )
    return MODELS[name](**params)
