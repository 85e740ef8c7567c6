"""Frozen snapshot of the seed (pre-PR-1) simulation kernel.

This is the verbatim pure-Python kernel as it shipped in the growth
seed, kept as a single module so ``tests/test_sim_determinism.py`` can
hold the current kernel's event order to it.  Do not optimise this
file -- it *is* the golden oracle.
"""

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel for "event has no value yet".
_PENDING = object()


class Event:
    """A one-shot event that can succeed or fail exactly once.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulation`.

    Notes
    -----
    The lifecycle is ``pending -> triggered -> processed``:

    * *pending*: freshly created, may have callbacks attached;
    * *triggered*: :meth:`succeed` or :meth:`fail` has been called and the
      event sits in the simulation queue;
    * *processed*: the engine has popped the event and run its callbacks.
    """

    def __init__(self, sim: "Simulation") -> None:  # noqa: F821
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure value was retrieved or handled, used to
        #: surface unhandled simulation-time exceptions.
        self._defused = False

    # -- state predicates ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the engine has already run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event.ok:
            self.succeed(event.value)
        else:
            event._defused = True
            self.fail(event.value)

    # -- composition -----------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._enqueue(self, delay=self.delay)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulations")
        #: Number of constituent events already *processed* successfully.
        self._count = 0
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event.value
            for event in self.events
            if event.processed and event.ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any constituent event has been processed.

    An ``AnyOf`` over zero events fires immediately (vacuous truth
    mirrors :class:`AllOf`'s behaviour for symmetry with SimPy).
    """

    def _satisfied(self) -> bool:
        return self._count >= 1 or not self.events


class AllOf(_Condition):
    """Fires once every constituent event has been processed."""

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)

class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given by the interrupter.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Process(Event):
    """An event representing a running generator-based process."""

    def __init__(self, sim: "Simulation", generator: Generator) -> None:  # noqa: F821
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        #: The event this process is currently waiting on, if any.
        self._target: Event = None
        # Kick off the process via an immediately-scheduled init event.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._enqueue(init)
        self._target = init

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process while it waits detaches it from its target event.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already finished")
        if self.sim.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.sim.schedule_interrupt(event)

    # -- engine callback ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        self.sim._active_process = self
        # If we were interrupted while waiting, forget the original target
        # (its eventual firing must no longer resume us).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        while True:
            try:
                if event.ok:
                    target = self._generator.send(event.value)
                else:
                    event._defused = True
                    target = self._generator.throw(event.value)
            except StopIteration as stop:
                self._target = None
                self.sim._active_process = None
                self.succeed(getattr(stop, "value", None))
                return
            except Interrupt as exc:
                # The generator re-raised an interrupt it did not handle.
                self._target = None
                self.sim._active_process = None
                self._defused = True
                self.fail(exc)
                return
            except BaseException as exc:
                self._target = None
                self.sim._active_process = None
                self.fail(exc)
                return
            if not isinstance(target, Event):
                exc = RuntimeError(
                    f"process yielded a non-event: {target!r}"
                )
                event = Event(self.sim)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if target.sim is not self.sim:
                exc = RuntimeError("process yielded an event from another simulation")
                event = Event(self.sim)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if target.processed:
                # Already fired: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            break
        self.sim._active_process = None

#: Default event priority.  Lower fires first among same-time events.
NORMAL = 1
#: Priority for urgent events (e.g. interrupts).
URGENT = 0


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

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None

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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue (engine-internal)."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def schedule_interrupt(self, event: Event) -> None:
        """Queue ``event`` ahead of same-time normal events."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now, URGENT, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise EmptySchedule()
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event.value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` (a time, an :class:`Event`, or queue-empty).

        Parameters
        ----------
        until:
            ``None`` runs until no events remain.  A number runs until the
            clock reaches that time.  An :class:`Event` runs until that
            event is processed and returns its value.
        """
        stop_value: Any = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: nothing to run.
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise ValueError(
                        f"until={deadline} lies in the past (now={self._now})"
                    )
                marker = Event(self)
                marker._ok = True
                marker._value = None
                marker.callbacks.append(StopSimulation.callback)
                self._seq += 1
                heapq.heappush(self._queue, (deadline, URGENT, self._seq, marker))
        try:
            while True:
                self.step()
        except StopSimulation as stop:
            stop_value = stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "simulation ran out of events before the awaited event fired"
                ) from None
        return stop_value
