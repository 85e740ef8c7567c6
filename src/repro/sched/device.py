"""The block device: simulation glue between workloads, scheduler and drive.

:class:`BlockDevice` owns a dispatcher process that repeatedly asks the
scheduler for the next request, runs it on the (single-server) drive,
and fires the request's completion event.  Every completed request is
appended to a :class:`RequestLog` for analysis — the logs are the raw
material for all of the paper's throughput and response-time figures.

When the owning simulation carries a telemetry sink
(``sim.telemetry``), the device reports the blktrace-style lifecycle of
every request to it — queued at :meth:`BlockDevice.submit`, dispatched
when the dispatcher hands it to the drive, completed with the drive's
service breakdown — and installs the sink on the drive so per-command
mechanics are metered too.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional

import numpy as np

from repro.disk.drive import Drive
from repro.sched.base import IOSchedulerBase
from repro.sched.request import IORequest
from repro.sim import AnyOf, Event, ReusableTimeout, Simulation


class RequestLog:
    """Completed-request archive with aggregate accessors.

    Parameters
    ----------
    max_records:
        ``None`` (default) keeps every completed request, the historical
        behaviour.  A positive value switches to a ring buffer holding
        the most recent ``max_records`` requests — long trace-replay
        runs stay bounded in memory; :attr:`dropped` counts evictions.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive: {max_records}")
        self.max_records = max_records
        self._records = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        #: Requests evicted by the ring buffer (0 in unbounded mode).
        self.dropped = 0

    def add(self, request: IORequest) -> None:
        if self.max_records is not None and len(self._records) == self.max_records:
            self.dropped += 1
        self._records.append(request)

    def __len__(self) -> int:
        return len(self._records)

    def requests(self, source: Optional[str] = None) -> Iterable[IORequest]:
        """All completed requests, optionally filtered by source."""
        if source is None:
            return list(self._records)
        return [r for r in self._records if r.source == source]

    def response_times(self, source: Optional[str] = None) -> np.ndarray:
        return np.array(
            [r.response_time for r in self.requests(source)], dtype=float
        )

    def bytes_completed(self, source: Optional[str] = None) -> int:
        return sum(r.bytes for r in self.requests(source))

    def throughput(self, duration: float, source: Optional[str] = None) -> float:
        """Mean completed bytes/second over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        return self.bytes_completed(source) / duration

    def count(self, source: Optional[str] = None) -> int:
        return len(self.requests(source)) if source else len(self._records)

    def errors(self, source: Optional[str] = None) -> List[IORequest]:
        """Completed requests the drive failed with ``MEDIUM_ERROR``."""
        return [r for r in self.requests(source) if r.failed]


class BlockDevice:
    """A drive fronted by an I/O scheduler inside a simulation.

    Parameters
    ----------
    sim:
        The owning simulation.
    drive:
        The drive timing model (single request at a time).
    scheduler:
        Queueing/dispatch policy.
    """

    def __init__(
        self,
        sim: Simulation,
        drive: Drive,
        scheduler: IOSchedulerBase,
        max_log_records: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.drive = drive
        self.scheduler = scheduler
        self.log = RequestLog(max_records=max_log_records)
        #: Telemetry sink from the simulation, or ``None``; the single
        #: ``is not None`` guard keeps recording off free.
        self.telemetry = sim.telemetry
        if self.telemetry is not None and drive.telemetry is None:
            drive.telemetry = self.telemetry
        #: Callables ``(kind, request, now)`` invoked on "submit" and
        #: "complete" — used by self-scheduling components (e.g. the
        #: Waiting scrubber) to watch foreground activity.
        self.observers: List = []
        self.busy = False
        self.busy_since: Optional[float] = None
        self.total_busy_time = 0.0
        self._wakeup: Event = sim.event()
        #: Pooled idle-recheck timer for the dispatcher's AnyOf wait.  A
        #: timer that lost the race to ``_wakeup`` is still in the heap
        #: (not processed) and must not be re-armed; the ``.processed``
        #: guard falls back to a fresh Timeout for that wait.
        self._recheck = ReusableTimeout(sim)
        #: Pooled timer the dispatcher sleeps on while the drive services
        #: a request.  It is the dispatcher's only wait at that point, so
        #: it has always fired (been processed) before the next request
        #: re-arms it.
        self._service = ReusableTimeout(sim)
        #: The dispatcher process (alive as long as the simulation).
        self.dispatcher = sim.process(self._dispatcher())

    # -- public API ------------------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; returns its completion event."""
        if request.submit_time is not None:
            raise ValueError(f"{request!r} was already submitted")
        sim = self.sim
        now = sim._now
        request.stamp_submit(now)
        request.completion = sim.event()
        self.scheduler.add(request, now)
        if self.telemetry is not None:
            self.telemetry.request_queued(now, request)
        for observer in self.observers:
            observer("submit", request, now)
        self._kick()
        return request.completion

    @property
    def queued(self) -> int:
        """Requests waiting in the scheduler (excludes the one in flight)."""
        return len(self.scheduler)

    def utilisation(self, duration: float) -> float:
        """Fraction of ``duration`` the drive spent servicing requests."""
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        busy = self.total_busy_time
        if self.busy and self.busy_since is not None:
            busy += self.sim.now - self.busy_since
        return busy / duration

    # -- dispatcher ----------------------------------------------------------------
    def _kick(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _dispatcher(self):
        # The clock only moves while the generator is suspended, so it is
        # read once per wake; the collaborators are bound once.  The
        # telemetry sink is read from ``self`` at each use: it may be
        # replaced after construction.
        sim = self.sim
        scheduler = self.scheduler
        drive = self.drive
        log = self.log
        while True:
            now = sim._now
            request, recheck = scheduler.select(now)
            if request is None:
                if recheck is not None and recheck <= now:
                    raise RuntimeError(
                        f"scheduler {scheduler.name} asked to re-check "
                        f"at {recheck} which is not in the future ({now})"
                    )
                if recheck is None:
                    yield self._wakeup
                else:
                    timer = self._recheck
                    wait = recheck - now
                    yield AnyOf(
                        sim,
                        [
                            timer.arm(wait)
                            if timer.processed
                            else sim.timeout(wait),
                            self._wakeup,
                        ],
                    )
                if self._wakeup.triggered:
                    self._wakeup = sim.event()
                continue

            request.dispatch_time = now
            scheduler.on_dispatch(request, now)
            if self.telemetry is not None:
                self.telemetry.request_dispatched(now, request)
            breakdown = drive.service(request.command, now)
            self.busy = True
            self.busy_since = now
            yield self._service.arm(breakdown.finish - now)
            now = sim._now
            self.busy = False
            self.total_busy_time += now - self.busy_since
            self.busy_since = None

            request.complete_time = now
            request.breakdown = breakdown
            if breakdown.error_lbn is not None and drive.faults is not None:
                # Attribute the detection to the submitting stream: this
                # is where "found by the scrubber" vs "found the hard
                # way, by a foreground read" is decided.
                drive.faults.log.record_media_error(
                    now,
                    breakdown.error_lbn,
                    source=request.source,
                    opcode=request.command.opcode.value,
                )
            scheduler.on_complete(request, now)
            log.add(request)
            if self.telemetry is not None:
                self.telemetry.request_completed(now, request)
            for observer in self.observers:
                observer("complete", request, now)
            request.completion.succeed(request)
            # The event now carries the request to whoever waits on it;
            # the request pointing back at the event would make every
            # completed request a reference cycle.
            request.completion = None
