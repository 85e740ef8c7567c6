"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes wait
on events by ``yield``\\ ing them; arbitrary callbacks may also be
attached.  :class:`Timeout` is an event scheduled a fixed delay in the
future.  :class:`AnyOf` / :class:`AllOf` compose events.

Performance notes
-----------------
Events are the unit of allocation in every simulation, so this module
is written for the interpreter rather than for elegance:

* every event class declares ``__slots__`` (no per-instance dict);
* the callback list is allocated lazily — the common fire-and-forget
  :class:`Timeout` never observes its callbacks, so it never pays for
  the list (``_callbacks`` is ``None`` until first use and the
  ``_PROCESSED`` sentinel afterwards); a single waiter (a process
  blocked on a timeout) is stored as the bare callable, so the
  dominant wait pattern allocates no list either;
* :class:`Timeout` schedules itself with one inlined ``heappush``
  instead of going through ``succeed()``/``Simulation._enqueue``.

The public surface (``event.callbacks`` as an appendable list while
pending, ``None`` once processed) is unchanged; the ``callbacks``
property maps the lazy representation back to that contract.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional

#: Sentinel for "event has no value yet".
_PENDING = object()
#: Sentinel replacing the callback list once the engine has fired it.
_PROCESSED = object()

#: Queue entries are ``(time, key, event)`` 3-tuples where ``key``
#: folds (priority, sequence) into one integer: normal events use the
#: bare sequence number, urgent events (interrupts, ``run(until=)``
#: deadline markers) subtract this bias, so every
#: urgent key sorts before every normal key at equal times while
#: sequence order is preserved within each class.  One int comparison
#: replaces two tuple elements on the heap hot path, and the common
#: (normal) keys stay single-digit PyLongs — urgent events, which are
#: rare, carry the multi-digit negative keys.
URGENT_BIAS = 1 << 62


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

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulation") -> None:  # noqa: F821
        self.sim = sim
        self._callbacks: Any = None  # lazily allocated list
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure value was retrieved or handled, used to
        #: surface unhandled simulation-time exceptions.
        self._defused = False

    # -- callback storage ------------------------------------------------
    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """The pending callback list, or ``None`` once processed.

        The backing list is allocated on first access, so events whose
        callbacks are never touched stay allocation-free.  A lone
        internal waiter (stored as a bare callable) is promoted to a
        list transparently.
        """
        cbs = self._callbacks
        if cbs is None:
            cbs = self._callbacks = []
            return cbs
        if cbs is _PROCESSED:
            return None
        if cbs.__class__ is not list:
            cbs = self._callbacks = [cbs]
        return cbs

    @callbacks.setter
    def callbacks(self, value: Optional[list]) -> None:
        self._callbacks = _PROCESSED if value is None else value

    # -- state predicates ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the engine has already run this event's callbacks."""
        return self._callbacks is _PROCESSED

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
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    def _detach(self) -> None:
        """Forget the waiters of an event that will never be processed
        (kernel teardown, :meth:`Simulation.close`)."""
        if self._callbacks is not _PROCESSED:
            self._callbacks = None

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

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        delay = float(delay)
        # Inlined Event.__init__ + Simulation._enqueue: a timeout is born
        # triggered, and this constructor dominates event churn.
        self.sim = sim
        self._callbacks = None
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, seq, self))


class ReusableTimeout(Event):
    """A pooled timeout event that can be re-armed after processing.

    Long-lived processes that sleep in a loop (the scrubber's
    inter-request delay, the block device's idle recheck) burn one
    :class:`Timeout` allocation per sleep.  A ``ReusableTimeout`` is
    armed like a fresh ``sim.timeout(delay)`` — identical sequence
    number consumption and heap tuple, so pooling is invisible to the
    differential oracle — but recycles the event object.

    Only re-arm an instance whose previous firing was *processed*
    (check :attr:`Event.processed`): a timer that lost an ``AnyOf``
    race still sits in the heap, and re-arming it would fire the new
    incarnation's callbacks at the stale due time.  Instances are born
    processed so the guard admits first use.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation") -> None:  # noqa: F821
        self.sim = sim
        self._callbacks = _PROCESSED
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = 0.0

    def arm(self, delay: float) -> "ReusableTimeout":
        """Re-schedule this event ``delay`` time units from now (its
        value is ``None``)."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        delay = float(delay)
        sim = self.sim
        self._callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, seq, self))
        return self


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`.

    ``events`` lists the constituents while the condition is pending
    and is empty once it has fired (the value maps the constituents
    processed by then to their values).
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulations")
        #: Number of constituent events already *processed* successfully.
        self._count = 0
        check = self._check
        for event in self.events:
            cbs = event._callbacks
            if cbs is _PROCESSED:
                check(event)
            elif cbs is None:
                event._callbacks = check
            elif cbs.__class__ is list:
                cbs.append(check)
            else:
                event._callbacks = [cbs, check]
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _detach(self) -> None:
        # Each constituent holds ``_check``, and through it this
        # condition and its ``events`` list: a cycle until it fires.
        Event._detach(self)
        for event in self.events:
            event._detach()

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
        else:
            self._count += 1
            if not self._satisfied():
                return
            self.succeed(self._collect())
        # Fired: let go of the constituents.  One that is still pending
        # keeps ``_check`` (a late failure must still be defused) and
        # through it this condition; pointing back at it would be a
        # reference cycle for as long as it stays pending.
        self.events = ()


class AnyOf(_Condition):
    """Fires as soon as any constituent event has been processed.

    An ``AnyOf`` over zero events fires immediately (vacuous truth
    mirrors :class:`AllOf`'s behaviour for symmetry with SimPy).
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1 or not self.events


class AllOf(_Condition):
    """Fires once every constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)
