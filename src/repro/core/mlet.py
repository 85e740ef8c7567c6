"""Latent sector errors and Mean Latent Error Time (MLET).

The paper motivates staggered scrubbing with Oprea & Juels' result
that LSEs arrive in spatial/temporal *bursts*, so probing the whole
disk quickly detects a burst much sooner than a sequential sweep.
This module closes the loop: it models bursty LSE arrivals, computes
when each scrub order visits each sector, and measures the MLET — the
mean time from an error's occurrence to its detection.

For a periodic scrubber, a sector visited at time ``v`` within each
pass of length ``T`` detects an error occurring at time ``t`` after
``(v - t) mod T``.  A burst is detected at its *earliest-visited*
sector; sequential scrubbing visits a contiguous burst all at once
(detection ~ U(0, T), MLET ~ T/2), while staggered scrubbing spreads a
burst's sectors over the staggering rounds, driving the minimum down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.algorithm import ScrubAlgorithm
from repro.disk.commands import SECTOR_SIZE


@dataclass(frozen=True)
class LSEBurst:
    """One burst of latent sector errors."""

    time: float
    start_sector: int
    length: int


def sector_visit_times(
    algorithm: ScrubAlgorithm,
    total_sectors: int,
    request_sectors: int,
    scrub_rate: float,
) -> Tuple[np.ndarray, float]:
    """When, within one pass, each sector is verified.

    Parameters
    ----------
    algorithm:
        Scrub order; consumed for one full pass.
    scrub_rate:
        Sustained scrub throughput in bytes/second (e.g. measured via
        :func:`repro.analysis.throughput.standalone_scrub_throughput`).

    Returns
    -------
    (visit_times, pass_duration)
    """
    if scrub_rate <= 0:
        raise ValueError(f"scrub_rate must be positive: {scrub_rate}")
    visits = np.full(total_sectors, -1.0)
    algorithm.reset(total_sectors, request_sectors)
    now = 0.0
    while True:
        extent = algorithm.next_extent()
        if extent is None:
            break
        lbn, sectors = extent
        duration = sectors * SECTOR_SIZE / scrub_rate
        visits[lbn : lbn + sectors] = now
        now += duration
    if np.any(visits < 0):
        missing = int(np.count_nonzero(visits < 0))
        raise ValueError(f"scrub order left {missing} sectors unvisited")
    return visits, now


def generate_bursts(
    rng: np.random.Generator,
    total_sectors: int,
    count: int,
    horizon: float,
    mean_length: float = 32.0,
    max_length: int = 4096,
) -> list:
    """Bursty LSE sample: geometric lengths at uniform times/locations.

    Bairavasundaram et al. observe that LSEs cluster tightly in space;
    a geometric length with a cap is the simplest faithful stand-in.
    """
    if count <= 0 or horizon <= 0:
        raise ValueError("count and horizon must be positive")
    if not 1 <= mean_length:
        raise ValueError(f"mean_length must be >= 1: {mean_length}")
    lengths = np.minimum(
        rng.geometric(min(1.0, 1.0 / mean_length), size=count), max_length
    )
    starts = rng.integers(0, total_sectors, size=count)
    lengths = np.minimum(lengths, total_sectors - starts)
    times = rng.random(count) * horizon
    return [
        LSEBurst(time=float(t), start_sector=int(s), length=int(max(1, n)))
        for t, s, n in zip(times, starts, lengths)
    ]


def mean_latent_error_time(
    visit_times: np.ndarray, pass_duration: float, bursts: list
) -> float:
    """MLET over a burst sample for a periodic scrubber.

    Detection of a burst is the first subsequent visit to *any* of its
    sectors; the scrubber repeats every ``pass_duration``.
    """
    if pass_duration <= 0:
        raise ValueError(f"pass_duration must be positive: {pass_duration}")
    if not bursts:
        raise ValueError("empty burst sample")
    delays = np.empty(len(bursts))
    for i, burst in enumerate(bursts):
        visits = visit_times[burst.start_sector : burst.start_sector + burst.length]
        phase = burst.time % pass_duration
        delays[i] = np.min((visits - phase) % pass_duration)
    return float(delays.mean())
