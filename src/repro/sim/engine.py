"""The discrete-event simulation engine.

:class:`Simulation` owns the virtual clock and the event queue.  Events
are processed in ``(time, priority, sequence)`` order, so simultaneous
events fire deterministically in scheduling order.

The :meth:`Simulation.run` loop is the kernel's hot path and the only
event loop in the package: it inlines :meth:`Simulation.step` with the
heap, the ``heappop`` function and the processed-sentinel bound to
locals, so each event costs one heap pop, one sentinel store and the
callback calls — no method dispatch and no allocation.  ``step()``
remains the single-event reference implementation (and the API for
manual stepping); the two must stay semantically identical.
"""

from __future__ import annotations

import gc
import heapq
import time
from functools import partial
from typing import Any, Generator, Iterable, Optional

from repro.sim.events import _PROCESSED, URGENT_BIAS, Event, Timeout
from repro.sim.process import Process

__all__ = [
    "EmptySchedule",
    "Simulation",
    "StopSimulation",
]


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulation.run` early."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation with the event value."""
        if event.ok:
            raise cls(event.value)
        raise event.value


class EmptySchedule(Exception):
    """Raised when the event queue has run dry."""


def _closed(*_args: Any, **_kwargs: Any) -> None:
    """What :attr:`Simulation.timeout` is after :meth:`Simulation.close`."""
    raise RuntimeError("this simulation has been closed")


class Simulation:
    """A single, self-contained discrete-event simulation.

    Parameters
    ----------
    start:
        Initial value of the simulation clock (default 0).

    Examples
    --------
    >>> sim = Simulation()
    >>> def proc(sim):
    ...     yield sim.timeout(3)
    ...     return "done"
    >>> p = sim.process(proc(sim))
    >>> sim.run()
    >>> sim.now
    3.0
    """

    #: Kernel backend identifier; :class:`~repro.sim.vector.VectorSimulation`
    #: overrides this with ``"vector"``.
    kernel = "reference"

    __slots__ = (
        "_now", "_queue", "_seq", "_active_process", "_marker",
        "timeout", "telemetry",
    )

    def __init__(self, start: float = 0.0, telemetry=None) -> None:
        self._now = float(start)
        self._queue: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Pooled ``run(until=<number>)`` deadline marker, recycled
        #: across runs once processed (see :meth:`_until_marker`).
        self._marker: Optional[Event] = None
        #: Create an event firing ``delay`` time units from now:
        #: ``sim.timeout(delay, value=None)``.  Bound as a C-level
        #: ``partial`` so the hottest event factory skips one Python
        #: frame per call.
        self.timeout = partial(Timeout, self)
        #: Optional :class:`~repro.obs.sink.TelemetrySink`.
        #: Instrumented components (block devices, scrubbers, ...) pick
        #: it up from here, so one constructor argument threads
        #: observability through the whole stack.  ``None`` leaves the
        #: hot event loop untouched.
        self.telemetry = telemetry

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this simulation."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event) -> None:
        """Insert a triggered event into the queue at the current time
        (engine-internal)."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, seq, event))

    def schedule_interrupt(self, event: Event) -> None:
        """Queue ``event`` ahead of same-time normal events."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, seq - URGENT_BIAS, event))

    def _until_marker(self, deadline: float) -> Event:
        """Push the ``run(until=<number>)`` stop marker at ``deadline``.

        The marker event is pooled: one is allocated on first use and
        recycled on every later numeric-``until`` run whose previous
        marker was actually processed.  A marker that never fired (the
        run ended early through an exception) is still sitting in the
        heap, so it must not be re-armed — that run allocates afresh.
        Sequence-number consumption is identical either way.
        """
        marker = self._marker
        if marker is None or marker._callbacks is not _PROCESSED:
            marker = self._marker = Event(self)
            marker._ok = True
            marker._value = None
        else:
            marker._defused = False
        marker._callbacks = StopSimulation.callback
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (deadline, seq - URGENT_BIAS, marker))
        return marker

    def close(self, processes: Iterable[Event] = ()) -> None:
        """Release everything still pending, so that dropping the
        simulation frees it — and the components built on it — by
        reference counting.

        What has been processed is acyclic already (see :meth:`run`).
        What is left at a horizon is not: the heap holds events whose
        callbacks are bound methods of live processes, a live process
        holds its generator frame and the bound ``_resume`` it hands to
        every event it waits on, the simulation refers to itself
        through :attr:`timeout` and the pooled ``until`` marker, and a
        sink that keeps requests (a pending one's completion event
        points back here) is reached through :attr:`telemetry`.
        ``close()`` clears the heap, unhooks those references and
        abandons each of ``processes`` (generator closed at its wait
        point, ``finally`` blocks run).  The kernel keeps no registry
        of the processes it started — that would be a store per spawn
        for the benefit of one call per simulation — so the caller
        passes the handles it owns.

        Afterwards :attr:`now` and the sequence counter stay readable;
        :meth:`run` and :attr:`timeout` raise ``RuntimeError``, and
        :attr:`telemetry` is ``None``.
        """
        for process in processes:
            process._close()
        self._queue.clear()
        self._marker = None
        self.timeout = _closed
        self.telemetry = None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def _pending(self) -> int:
        """Number of scheduled events not yet fired."""
        return len(self._queue)

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise EmptySchedule()
        self._now, _, event = heapq.heappop(self._queue)
        callbacks = event._callbacks
        event._callbacks = _PROCESSED
        if callbacks is not None:
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(event)
            else:
                callbacks(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` (a time, an :class:`Event`, or queue-empty).

        ``None`` runs until no events remain.  A number runs until the
        clock reaches that time.  An :class:`Event` runs until that
        event is processed and returns its value.

        The cyclic garbage collector is paused while the event loop
        runs (restored, with a young-generation collection, on exit).
        Kernel objects are acyclic once processed — a fired condition
        lets go of its constituents, a finished process of its bound
        resume callback, and a completed request (see
        :class:`~repro.sched.device.BlockDevice`) of its completion
        event; a posted request never had one — so reference counting
        reclaims them, and the cycle
        collector would only rescan the pending-event heap over and
        over, which can double the cost of allocation-heavy
        simulations.  What is still *pending* when ``run`` returns is
        cyclic (:meth:`close` releases it).
        """
        if self.timeout is _closed:
            _closed()
        stop_value: Any = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    # Already processed: nothing to run.
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise ValueError(
                        f"until={deadline} lies in the past (now={self._now})"
                    )
                self._until_marker(deadline)
        # Hot loop: step() inlined with everything bound to locals.
        # Telemetry counts events by difference: every queue insertion
        # consumes exactly one sequence number, so the events fired by
        # this call are the sequence numbers consumed minus the growth
        # of the pending set.  A sink therefore costs three samples per
        # run() call and nothing per event.
        sink = self.telemetry
        queue = self._queue
        heappop = heapq.heappop
        processed = _PROCESSED
        unpause = gc.isenabled()
        if unpause:
            gc.disable()
        seq_start = self._seq
        pending_start = self._pending()
        wall_start = time.perf_counter()
        try:
            try:
                while queue:
                    item = heappop(queue)
                    self._now = item[0]
                    event = item[2]
                    callbacks = event._callbacks
                    event._callbacks = processed
                    if callbacks is not None:
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                    if not event._ok and not event._defused:
                        raise event._value
            except StopSimulation as stop:
                return stop.args[0] if stop.args else None
        finally:
            events = self._seq - seq_start - (self._pending() - pending_start)
            wall = time.perf_counter() - wall_start
            if unpause:
                gc.enable()
                gc.collect(0)
            if sink is not None:
                # Reported on every exit (normal, ``until``, exception).
                # Telemetry only observes — it never schedules, reorders
                # or consumes randomness — so a run fires the same event
                # sequence with or without it.
                sink.engine_run(events, self._now, wall)
        if isinstance(until, Event) and not until.triggered:
            raise RuntimeError(
                "simulation ran out of events before the awaited event fired"
            )
        return stop_value
