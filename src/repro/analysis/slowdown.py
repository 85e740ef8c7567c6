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
    bisection step runs :func:`_waiting_arrays` only on the intervals
    longer than its midpoint -- a working set that shrinks as one size
    converges -- or, for each arm of a halving rung, only on the tail
    of the sorted sample that a prefix sum cannot answer).  A step
    charges the meter itself, 1 sim and the sample's size for each size
    it decides, exactly as :func:`fixed_waiting_pass` would, although
    it builds no result; an arm whose certified estimate cannot decide
    re-runs its pass within that charge.  A rung's decided threshold-0
    pass and its unrun threshold-max pass are charged the same way.
    That makes the meter a machine-independent count of the logical
    work the exhaustive grid and the successive-halving search ask for,
    so their costs compare directly regardless of sample size; it is
    *not* proportional to seconds.
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
    pass, each threshold-bisection step and a halving rung's tails call
    it.  ``service`` is one service time or, for a step that
    bisects several request sizes at once, one per interval.
    ``usable``'s buffer becomes ``delays``.
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
    """Waiting simulation for adaptive size schedules.

    A schedule's request sizes depend only on (request index, elapsed
    firing time), so every interval fires the same requests from its
    start: one ramp table (:func:`_ramp`) of their end times serves
    them all.  An interval ends during the first ramp request whose end
    reaches its usable time (one ``searchsorted``), or after the ramp,
    once sizes reach the schedule's cap, where the rest of the interval
    is handled in closed form.  Per interval this is the arithmetic of
    a request-by-request walk, bit for bit.
    """
    durations = np.asarray(durations, dtype=float)
    _validate(threshold, total_requests, span)
    if isinstance(schedule, FixedSchedule):
        return simulate_fixed_waiting(
            durations, threshold, schedule.size, service_model,
            total_requests, span, label=label or schedule.name,
        )
    SIM_METER.sims += 1
    SIM_METER.interval_evals += len(durations)

    usable = durations - threshold
    usable = usable[usable > 0]
    delays = np.empty_like(usable)
    scrub_bytes = 0.0
    if len(usable):
        ends, done = _ramp(schedule, service_model, float(usable.max()))
        # The ramp request in flight when each interval ends.
        last = np.searchsorted(ends, usable)
        ramp = last < len(ends)
        delays[ramp] = ends[last[ramp]] - usable[ramp]
        # Integer byte sums below 2**53: exact in any order.
        scrub_bytes = float(np.add.reduce(done[last[ramp]]))
        if not ramp.all():  # the ramp reached the cap before these ended
            cap = schedule.max_size
            cap_service = float(service_model.time(float(cap)))
            elapsed, before = (ends[-1], done[-1]) if len(ends) else (0.0, 0.0)
            remaining = usable[~ramp] - elapsed
            complete = np.floor_divide(remaining, cap_service)
            partial = remaining - complete * cap_service
            in_flight = partial > 0  # it still completes
            delays[~ramp] = np.where(in_flight, cap_service - partial, 0.0)
            scrub_bytes += (
                len(remaining) * float(before)
                + float(np.add.reduce(complete)) * cap
                + int(np.count_nonzero(in_flight)) * cap
            )

    return _result(
        threshold,
        label or schedule.name,
        delays,
        scrub_bytes,
        total_requests,
        span,
    )


#: The most requests one constant-size stretch of a ramp adds at once.
_RAMP_CHUNK = 1 << 16


def _ramp(schedule: SizeSchedule, service_model: ScrubServiceModel, longest: float):
    """``(ends, done)``: the requests every interval fires, in order.

    ``ends[k]`` is the firing time at which request ``k`` completes and
    ``done[k]`` the bytes scrubbed once it has.  The table stops before
    the first request of the schedule's cap or after the first request
    that ends at or past ``longest``.  Elapsed time adds one service
    time per request, in request order, through ``np.add.accumulate``:
    a stretch that :meth:`~repro.core.adaptive.SizeSchedule.constant_until`
    says keeps one size is added as one array, any other request as an
    array of one.
    """
    cap = schedule.max_size
    ends, sizes, counts = [], [], []
    index, elapsed = 0, 0.0
    while True:
        size = schedule.size_at(index, elapsed)
        if size >= cap:
            break
        service = float(service_model.time(float(size)))
        until = schedule.constant_until(index, elapsed)
        count = 1
        if until > elapsed:
            count = min(_RAMP_CHUNK, int((min(until, longest) - elapsed) / service) + 1)
        run = np.full(count + 1, service)
        run[0] = elapsed
        np.add.accumulate(run, out=run)
        # run[:-1] are the requests' start times and run[1:] their ends;
        # the first starts at ``elapsed`` and keeps ``size`` in any case.
        count = max(1, int(np.searchsorted(run[:-1], until)))
        run = run[1:count + 1]
        reached = int(np.searchsorted(run, longest)) + 1
        ends.append(run[:reached])
        sizes.append(size)
        counts.append(min(count, reached))
        if reached <= count:
            break  # that request ends at or past every interval
        index += count
        elapsed = float(run[-1])
    ends = np.concatenate(ends) if ends else np.empty(0)
    done = np.add.accumulate(np.repeat(np.asarray(sizes, dtype=float), counts))
    return ends, done


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
