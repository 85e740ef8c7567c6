"""Waiting-policy slowdown/throughput simulation (Fig. 15, Table III).

Simulates the Waiting policy over a trace's idle intervals with a
given scrub request-size schedule and service model:

* when an interval of length ``D`` exceeds the wait threshold ``t``,
  the scrubber fires back-to-back requests from offset ``t``;
* the request in flight when the interval ends delays the arriving
  foreground request by its *remaining* service time — that is the
  collision's slowdown contribution (and the in-flight request still
  completes, so its bytes count);
* mean slowdown is averaged over *all* foreground requests, matching
  the administrator-facing metric the paper optimises against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.service_model import ScrubServiceModel
from repro.core.adaptive import FixedSchedule, SizeSchedule


class _SimMeter:
    """Process-global simulation-effort meter.

    The unit is *interval evaluations*: one (idle interval, Waiting
    simulation) question answered.  A simulation charges 1 sim and the
    size of the idle sample it answers for — not the number of array
    elements it touches, which is smaller (``durations > threshold``
    discards most intervals before any arithmetic, and a threshold
    bisection step runs :func:`_waiting_arrays` on a working set that
    shrinks as it converges; it charges the meter itself, 1 sim and
    the sample's size, exactly as :func:`fixed_waiting_pass` would,
    although it builds no result).  That makes it a machine-independent
    count of the logical work the exhaustive grid and the
    successive-halving search ask for, so their costs compare directly
    regardless of sample size; it is *not* proportional to seconds.
    Purely additive bookkeeping (two integer adds per simulation);
    workers meter their own process, so cross-process totals must be
    summed by the caller or measured serially.
    """

    __slots__ = ("sims", "interval_evals")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sims = 0
        self.interval_evals = 0

    def snapshot(self) -> dict:
        return {"sims": self.sims, "interval_evals": self.interval_evals}


#: The meter every Waiting simulation reports to.
SIM_METER = _SimMeter()


@dataclass(frozen=True)
class SlowdownResult:
    """Outcome of one Waiting-policy simulation."""

    threshold: float
    label: str
    collisions: int
    total_requests: int
    mean_slowdown: float
    max_slowdown: float
    scrub_bytes: float
    #: Scrubbed bytes per second of trace time.
    throughput: float

    @property
    def throughput_mbps(self) -> float:
        return self.throughput / 1e6


def simulate_fixed_waiting(
    durations: np.ndarray,
    threshold: float,
    request_bytes: int,
    service_model: ScrubServiceModel,
    total_requests: int,
    span: float,
    label: str = "",
) -> SlowdownResult:
    """Vectorised simulation for a fixed request size."""
    durations = np.asarray(durations, dtype=float)
    return fixed_waiting_pass(
        durations,
        len(durations),
        threshold,
        request_bytes,
        float(service_model.time(float(request_bytes))),
        total_requests,
        span,
        label,
    )


def fixed_waiting_pass(
    work: np.ndarray,
    sample_size: int,
    threshold: float,
    request_bytes: int,
    service: float,
    total_requests: int,
    span: float,
    label: str = "",
) -> SlowdownResult:
    """The fixed-size Waiting arithmetic on a working set of a sample.

    ``work`` must hold, in sample order, every interval of the idle
    sample longer than ``threshold``; which shorter ones it also holds
    makes no difference, because the pass discards them first.  So a
    caller that only ever raises its threshold (a bisection's lower
    bound) may keep handing over a shrinking array and get, bit for
    bit, the result of simulating the whole sample.  ``service`` is the
    request size's service time, looked up by the caller.  The meter is
    charged ``sample_size`` — the sample the answer is for — whatever
    ``len(work)`` is.
    """
    _validate(threshold, total_requests, span)
    SIM_METER.sims += 1
    SIM_METER.interval_evals += sample_size
    usable = work[work > threshold]
    usable -= threshold
    return _fixed_result(
        threshold, request_bytes, _waiting_arrays(usable, service),
        total_requests, span, label,
    )


def _waiting_arrays(usable: np.ndarray, service: float | np.ndarray):
    """``(delays, complete, idle)`` of the intervals with ``usable``
    seconds left after the wait threshold, ``usable`` in sample order.

    Per interval: ``complete`` requests fit back to back; the one in
    flight when the interval ends (``idle`` is False) delays the
    arriving foreground request by its remaining service time and still
    completes.  The one implementation of this arithmetic: a Waiting
    pass and each threshold-bisection step call it.  ``service`` is one
    service time or, for a step that bisects several request sizes at
    once, one per interval.  ``usable``'s buffer becomes ``delays``.
    """
    complete = np.divide(usable, service)
    np.floor(complete, out=complete)
    partial = np.multiply(complete, service)
    np.subtract(usable, partial, out=partial)
    idle = partial <= 0.0
    delays = np.subtract(service, partial, out=usable)
    delays[idle] = 0.0
    return delays, complete, idle


def _fixed_result(
    threshold: float,
    request_bytes: int,
    arrays,
    total_requests: int,
    span: float,
    label: str = "",
) -> SlowdownResult:
    """The :class:`SlowdownResult` of :func:`_waiting_arrays`' output."""
    delays, complete, idle = arrays
    # Integer-valued partial sums below 2**53: exact in any order.
    requests_done = float(np.add.reduce(complete)) + (
        len(idle) - int(np.count_nonzero(idle))
    )
    return _result(
        threshold,
        label or f"fixed {request_bytes // 1024}KB",
        delays,
        requests_done * request_bytes,
        total_requests,
        span,
    )


def simulate_adaptive_waiting(
    durations: np.ndarray,
    threshold: float,
    schedule: SizeSchedule,
    service_model: ScrubServiceModel,
    total_requests: int,
    span: float,
    label: str = "",
) -> SlowdownResult:
    """Per-interval simulation for adaptive size schedules.

    Sizes grow per the schedule until they reach its cap; once capped,
    the remainder of the interval is handled in closed form, so even
    hour-long intervals cost a handful of iterations.
    """
    durations = np.asarray(durations, dtype=float)
    _validate(threshold, total_requests, span)
    if not isinstance(schedule, FixedSchedule):
        SIM_METER.sims += 1
        SIM_METER.interval_evals += len(durations)
    if isinstance(schedule, FixedSchedule):
        return simulate_fixed_waiting(
            durations, threshold, schedule.size, service_model,
            total_requests, span, label=label or schedule.name,
        )

    cap = schedule.max_size
    cap_service = float(service_model.time(float(cap)))
    delays = []
    scrub_bytes = 0.0
    for duration in durations:
        usable = duration - threshold
        if usable <= 0:
            continue
        elapsed = 0.0
        index = 0
        delay = None
        while True:
            size = schedule.size_at(index, elapsed)
            if size >= cap:
                # Steady state: finish the interval arithmetically.
                remaining = usable - elapsed
                complete = int(remaining // cap_service)
                partial = remaining - complete * cap_service
                scrub_bytes += complete * cap
                if partial > 0:
                    delay = cap_service - partial
                    scrub_bytes += cap
                else:
                    delay = 0.0
                break
            service = float(service_model.time(float(size)))
            if elapsed + service >= usable:
                delay = elapsed + service - usable
                scrub_bytes += size  # in-flight request completes
                break
            elapsed += service
            scrub_bytes += size
            index += 1
        delays.append(delay)

    return _result(
        threshold,
        label or schedule.name,
        np.asarray(delays, dtype=float),
        scrub_bytes,
        total_requests,
        span,
    )


def _validate(threshold: float, total_requests: int, span: float) -> None:
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative: {threshold}")
    if total_requests <= 0:
        raise ValueError(f"total_requests must be positive: {total_requests}")
    if span <= 0:
        raise ValueError(f"span must be positive: {span}")


def _result(
    threshold: float,
    label: str,
    delays: np.ndarray,
    scrub_bytes: float,
    total_requests: int,
    span: float,
) -> SlowdownResult:
    collisions = int(np.count_nonzero(delays > 0))
    return SlowdownResult(
        threshold=threshold,
        label=label,
        collisions=collisions,
        total_requests=total_requests,
        mean_slowdown=float(np.add.reduce(delays)) / total_requests,
        max_slowdown=float(np.maximum.reduce(delays)) if len(delays) else 0.0,
        scrub_bytes=scrub_bytes,
        throughput=scrub_bytes / span,
    )
