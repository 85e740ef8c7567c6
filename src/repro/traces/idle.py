"""Idle-interval extraction from arrival traces.

Block traces record *arrivals*; idleness additionally depends on how
long each request keeps the disk busy.  Following the paper's analysis
methodology, we reconstruct busy periods with a service-time model and
report the gaps between them.  The recurrence

    busy_i = max(busy_{i-1}, t_i) + s_i

is evaluated in closed form (``busy_i = S_i + max_j (t_j - S_{j-1})``
with ``S`` the service prefix sum), so extraction is a handful of
vectorised passes even for multi-million-request traces.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.traces.record import Trace

#: Default per-request service model: fixed positioning plus transfer.
DEFAULT_POSITIONING = 0.004  # seconds
DEFAULT_TRANSFER_RATE = 100e6  # bytes/second


def service_times(
    sectors: np.ndarray, positioning: float = DEFAULT_POSITIONING
) -> np.ndarray:
    """Nominal service time per request: positioning + size/rate, at
    :data:`DEFAULT_TRANSFER_RATE`."""
    if positioning < 0:
        raise ValueError(f"positioning must be non-negative: {positioning}")
    return (
        positioning
        + np.asarray(sectors, dtype=float) * 512.0 / DEFAULT_TRANSFER_RATE
    )


def idle_intervals(
    times: np.ndarray, service: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute idle intervals from arrival times and service times.

    Parameters
    ----------
    times:
        Non-decreasing arrival times.
    service:
        Per-request service times; a scalar default of
        ``DEFAULT_POSITIONING`` per request if omitted.

    Returns
    -------
    (starts, durations):
        Idle interval start times and lengths.  An interval starts when
        the disk drains and ends at the next arrival; a zero-length gap
        is no interval.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        return np.zeros(0), np.zeros(0)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    if service is None:
        service = np.full(len(times), DEFAULT_POSITIONING)
    else:
        service = np.asarray(service, dtype=float)
        if len(service) != len(times):
            raise ValueError("service must match times in length")
        if np.any(service < 0):
            raise ValueError("service times must be non-negative")

    prefix = np.cumsum(service)
    prior = np.concatenate(([0.0], prefix[:-1]))
    busy_until = prefix + np.maximum.accumulate(times - prior)

    starts = busy_until[:-1]
    durations = times[1:] - busy_until[:-1]
    mask = durations > 0.0
    return starts[mask], durations[mask]


def idle_intervals_streaming(
    chunks, positioning: float = DEFAULT_POSITIONING
) -> Tuple[np.ndarray, np.ndarray]:
    """Idle intervals from a stream of time-ordered trace chunks.

    Accepts any iterable of :class:`Trace` chunks (in particular a
    :class:`~repro.traces.store.StoredTrace`), holding only one chunk's
    columns plus the O(intervals) output resident.  The busy recurrence
    carries across chunk boundaries: with ``B`` the busy-until time of
    the previous chunk's last request, the closed form becomes

        busy_j = S_j + cummax(max(B, t_0), t_1 - S_0, ..., t_j - S_{j-1})

    with ``S`` the chunk-local service prefix sum, and the boundary gap
    ``t_0 - B`` is emitted like any other interval.  For a single chunk
    this reduces bit-identically to :func:`idle_intervals`; across
    chunks the values agree up to floating-point regrouping of the
    service prefix (the store's uniform re-chunking makes the result
    deterministic for a given chunk size).
    """
    starts_parts = []
    durations_parts = []
    busy_last: Optional[float] = None
    for chunk in chunks:
        times = np.asarray(chunk.times, dtype=float)
        if len(times) == 0:
            continue
        service = service_times(chunk.sectors, positioning)
        prefix = np.cumsum(service)
        prior = np.concatenate(([0.0], prefix[:-1]))
        peaks = times - prior
        if busy_last is not None:
            gap = times[0] - busy_last
            if gap > 0.0:
                starts_parts.append(np.array([busy_last]))
                durations_parts.append(np.array([gap]))
            peaks[0] = max(peaks[0], busy_last)
        busy = prefix + np.maximum.accumulate(peaks)
        durations = times[1:] - busy[:-1]
        mask = durations > 0.0
        starts_parts.append(busy[:-1][mask])
        durations_parts.append(durations[mask])
        busy_last = float(busy[-1])
    if not starts_parts:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(starts_parts), np.concatenate(durations_parts)


def idle_intervals_from_trace(
    trace: Trace, positioning: float = DEFAULT_POSITIONING
) -> Tuple[np.ndarray, np.ndarray]:
    """Idle intervals of a :class:`Trace` under the nominal service model."""
    return idle_intervals(trace.times, service_times(trace.sectors, positioning))
