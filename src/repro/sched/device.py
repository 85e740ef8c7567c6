"""The block device: simulation glue between workloads, scheduler and drive.

:class:`BlockDevice` owns a dispatcher that repeatedly asks the
scheduler for the next request, runs it on the (single-server) drive,
and fires the request's completion event.  Every completed request is
appended to a :class:`RequestLog` for analysis — the logs are the raw
material for all of the paper's throughput and response-time figures.

A request enters through :meth:`BlockDevice.submit`, which returns the
completion event its submitter waits on, or :meth:`BlockDevice.post`,
which builds none: the open-loop replay cursor never waits on its
requests, so their completions push nothing onto the event heap.

When the owning simulation carries a telemetry sink
(``sim.telemetry``), the device reports the blktrace-style lifecycle of
every request to it — queued at :meth:`BlockDevice.post`, dispatched
when the dispatcher hands it to the drive, completed with the drive's
service breakdown — and hands the sink its :class:`RequestLog` once,
when it is built, for whatever the sink reads off the completed
requests later.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Iterable, List, Optional

import numpy as np

from repro.disk.drive import Drive
from repro.sched.base import IOSchedulerBase
from repro.sched.request import IORequest, _sequence
from repro.sim import Event, ReusableTimeout, Simulation
from repro.sim.events import _PENDING, _PROCESSED


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
        if max_records is None:
            # Nothing to count: ``add`` is the list's own ``append``.
            self.add = self._records.append

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
        #: ``is not None`` guard keeps recording off free.  The device
        #: owns the log, so it is the one place the sink is handed it.
        self.telemetry = sim.telemetry
        if self.telemetry is not None:
            self.telemetry.attach_log(self.log)
        #: Callables ``(kind, request, now)`` invoked on "submit" and
        #: "complete" — used by self-scheduling components (e.g. the
        #: Waiting scrubber) to watch foreground activity.
        self.observers: List = []
        self.busy = False
        self.busy_since: Optional[float] = None
        self.total_busy_time = 0.0
        #: Triggered by the first :meth:`post` after the dispatcher
        #: last went idle; the dispatcher swaps in a fresh one when it
        #: wakes from an idle wait.
        self._wakeup: Event = sim.event()
        #: The dispatcher (alive as long as the simulation): a handle
        #: with ``is_alive`` and ``_close()`` like a process.
        self.dispatcher = _Dispatcher(self)

    # -- public API ------------------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; returns its completion event."""
        self.post(request)
        # ``Event(sim)``, inlined: ``post``'s frame takes the place of
        # ``Event.__init__``'s.
        request.completion = completion = Event.__new__(Event)
        completion.sim = self.sim
        completion._callbacks = None
        completion._value = _PENDING
        completion._ok = None
        completion._defused = False
        return completion

    def post(self, request: IORequest) -> None:
        """Queue ``request`` with no completion event, for a submitter
        that never waits on it (the open-loop replay cursor): its
        completion pushes nothing onto the heap."""
        if request.submit_time is not None:
            raise ValueError(f"{request!r} was already submitted")
        sim = self.sim
        now = sim._now
        request.seq = next(_sequence)
        request.submit_time = now
        self.scheduler.add(request, now)
        if self.telemetry is not None:
            self.telemetry.request_queued(now, request)
        for observer in self.observers:
            observer("submit", request, now)
        # Wake the dispatcher: ``_wakeup.succeed()``, inlined.
        wakeup = self._wakeup
        if wakeup._value is _PENDING:
            wakeup._ok = True
            wakeup._value = None
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (now, seq, wakeup))

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


class _Dispatcher:
    """The device's dispatcher as a callback state machine.

    It replaces a generator process and pushes the ``(time, key,
    event)`` heap entries that process pushed, in the same order,
    except a posted request's completion, which nobody waits on.  Every
    outcome (request log, clock, busy time, metrics) stays where it
    was, and the event count falls by the posted requests completed
    (``tests/test_sched_device.py::_ReferenceDevice`` keeps the
    generator as the oracle):

    * construction pushes one init event;
    * idle with no re-check, it waits on ``device._wakeup`` (no push;
      :meth:`BlockDevice.post` pushes it once); when it pops, a fresh
      ``_wakeup`` is swapped in.  A ``_wakeup`` already processed wakes
      it at once, with no push;
    * idle with a re-check, it pushes one timer (the pooled ``_recheck``
      if that has been processed, else a fresh ``sim.timeout``) and
      then waits on the pooled condition event ``_woken``, which stands
      for the generator's ``AnyOf(timer, _wakeup)``: pushed at once if
      ``_wakeup`` is already processed, else at ``now`` by whichever of
      the two pops first — the other is detached and pops as a no-op;
    * dispatching, it arms the pooled ``_service`` timer (one push) and
      runs the completion bookkeeping when it pops, which pushes the
      request's completion event if it was submitted, not posted.

    Callbacks are bound once; :meth:`_close` drops them and the events
    carrying them, which breaks the device ↔ dispatcher cycles.
    """

    __slots__ = (
        "device", "sim", "scheduler", "drive", "log", "is_alive",
        "_on_wakeup", "_on_timer_won", "_on_wakeup_won", "_on_served",
        "_recheck", "_timer", "_woken", "_service", "_request",
        "_breakdown",
    )

    def __init__(self, device: BlockDevice) -> None:
        sim = device.sim
        self.device = device
        # Collaborators are bound once; the telemetry sink and the
        # observers are read from the device at each use: the sink may
        # be replaced after construction.
        self.sim = sim
        self.scheduler = device.scheduler
        self.drive = device.drive
        self.log = device.log
        #: ``False`` once an exception escaped the dispatcher (it never
        #: finishes otherwise, as the generator it replaces never did).
        self.is_alive = True
        self._on_wakeup = self._woke
        self._on_timer_won = self._timer_won
        self._on_wakeup_won = self._wakeup_won
        self._on_served = self._served
        #: Pooled idle re-check timer.  A timer that lost its race is
        #: still in the heap (not processed) and must not be re-armed;
        #: the ``processed`` guard falls back to a fresh Timeout.
        self._recheck = ReusableTimeout(sim)
        #: The re-check timer racing ``_wakeup``, while it races.
        self._timer: Optional[Event] = None
        #: Pooled condition event: always processed before re-use, since
        #: the dispatcher does nothing else until it pops.
        self._woken = woken = Event(sim)
        woken._ok = True
        woken._value = None
        #: Pooled timer for the drive's service time, processed before
        #: the next request re-arms it for the same reason.
        self._service = ReusableTimeout(sim)
        self._request: Optional[IORequest] = None
        self._breakdown = None
        # The init event, as ``Process.__init__`` pushes it.  Only the
        # heap refers to it, so clearing the heap releases it.
        init = Event(sim)
        init._ok = True
        init._value = None
        init._callbacks = self._run
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, init))

    def _close(self) -> None:
        """Abandon the dispatcher (:meth:`Simulation.close`): the events
        it waits on forget it and it lets go of the device."""
        device = self.device
        if device is None:
            return
        for event in (
            device._wakeup, self._timer, self._recheck, self._woken,
            self._service,
        ):
            if event is not None:
                event._detach()
        self._on_wakeup = self._on_timer_won = self._on_wakeup_won = None
        self._on_served = None
        self.device = self._timer = self._request = self._breakdown = None

    # -- callbacks ---------------------------------------------------------------
    def _woke(self, _event: Event) -> None:
        """An idle wait ended (``_wakeup`` or ``_woken`` popped): swap in
        a fresh ``_wakeup`` if this one was triggered, then dispatch."""
        self._timer = None
        device = self.device
        if device._wakeup._value is not _PENDING:
            device._wakeup = Event(self.sim)
        self._run()

    def _timer_won(self, _event: Event) -> None:
        self.device._wakeup._callbacks = None
        self._push_woken()

    def _wakeup_won(self, _event: Event) -> None:
        self._timer._callbacks = None
        self._push_woken()

    def _push_woken(self) -> None:
        woken = self._woken
        woken._callbacks = self._on_wakeup
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, woken))

    # -- the dispatch loop ---------------------------------------------------------
    def _run(self, _event: Optional[Event] = None) -> None:
        """Dispatch the next request, or start an idle wait."""
        sim = self.sim
        scheduler = self.scheduler
        device = self.device
        now = sim._now
        try:
            while True:
                request, recheck = scheduler.select(now)
                if request is not None:
                    break
                wakeup = device._wakeup
                if recheck is None:
                    if wakeup._callbacks is _PROCESSED:
                        device._wakeup = Event(sim)
                        continue
                    wakeup._callbacks = self._on_wakeup
                    return
                if recheck <= now:
                    raise RuntimeError(
                        f"scheduler {scheduler.name} asked to re-check "
                        f"at {recheck} which is not in the future ({now})"
                    )
                timer = self._recheck
                wait = recheck - now
                timer = (
                    timer.arm(wait)
                    if timer._callbacks is _PROCESSED
                    else sim.timeout(wait)
                )
                if wakeup._callbacks is _PROCESSED:
                    self._push_woken()
                else:
                    self._timer = timer
                    timer._callbacks = self._on_timer_won
                    wakeup._callbacks = self._on_wakeup_won
                return

            request.dispatch_time = now
            scheduler.on_dispatch(request, now)
            if device.telemetry is not None:
                device.telemetry.request_dispatched(now, request)
            breakdown = self.drive.service(request.command, now)
            device.busy = True
            device.busy_since = now
            self._request = request
            self._breakdown = breakdown
            self._service.arm(breakdown.finish - now)._callbacks = self._on_served
        except BaseException:
            self.is_alive = False
            raise

    def _served(self, _event: Event) -> None:
        """The drive finished the request in flight."""
        sim = self.sim
        device = self.device
        now = sim._now
        request = self._request
        breakdown = self._breakdown
        try:
            device.busy = False
            device.total_busy_time += now - device.busy_since
            device.busy_since = None

            request.complete_time = now
            request.breakdown = breakdown
            faults = self.drive.faults
            if breakdown.error_lbn is not None and faults is not None:
                # Attribute the detection to the submitting stream: this
                # is where "found by the scrubber" vs "found the hard
                # way, by a foreground read" is decided.
                faults.log.record_media_error(
                    now,
                    breakdown.error_lbn,
                    source=request.source,
                    opcode=request.command.opcode.value,
                )
            self.scheduler.on_complete(request, now)
            self.log.add(request)
            if device.telemetry is not None:
                device.telemetry.request_completed(now, request)
            for observer in device.observers:
                observer("complete", request, now)
            # ``completion.succeed(request)``, inlined, for a submitted
            # request (a posted one has no event).  The event then
            # carries the request to whoever waits on it; the request
            # pointing back at the event would make every completed
            # request a reference cycle.
            completion = request.completion
            if completion is not None:
                request.completion = None
                completion._ok = True
                completion._value = request
                sim._seq = seq = sim._seq + 1
                heappush(sim._queue, (now, seq, completion))
        except BaseException:
            self.is_alive = False
            raise
        self._run()
