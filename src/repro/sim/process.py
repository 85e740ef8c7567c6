"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process resumes
when that event fires (receiving the event's value, or the failure
exception thrown into the generator).  A process is itself an event that
fires when the generator returns, so processes can wait on each other.

The resume path is the hottest non-allocating code in the kernel:

* the bound ``_resume`` method is created once (``_on_fire``) instead
  of allocating a fresh bound method for every wait — a reference from
  the process to itself, dropped when it finishes, fails or is closed,
  so that a process that is done is freed by reference counting;
* a process waiting alone on an event stores that callable directly in
  the event's ``_callbacks`` slot — no list allocation per yield;
* the target-detach bookkeeping (forgetting the event we were waiting
  on when something else woke us) only runs after an actual
  :meth:`Process.interrupt`, flagged by ``_interrupted``.
"""

from __future__ import annotations

from typing import Any, Generator

from heapq import heappush

from repro.sim.events import _PENDING, _PROCESSED, Event, Timeout


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

    __slots__ = ("_generator", "_target", "_interrupted", "_on_fire")

    def __init__(self, sim: "Simulation", generator: Generator) -> None:  # noqa: F821
        try:
            generator.send
            generator.throw
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        # Inlined Event.__init__: process creation is hot in
        # spawn-heavy workloads, so skip the extra frames.
        self.sim = sim
        self._callbacks = None
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        #: Set by :meth:`interrupt`; gates the target-detach slow path.
        self._interrupted = False
        #: The bound resume callback, allocated once and reused.
        self._on_fire = on_fire = self._resume
        # Kick off the process via an immediately-scheduled init event
        # (built with __new__ + inlined heappush — see Timeout).
        init = Event.__new__(Event)
        init.sim = sim
        init._callbacks = on_fire
        init._value = None
        init._ok = True
        init._defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, init))
        #: The event this process is currently waiting on, if any.
        self._target: Event = init

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
        event._callbacks = self._on_fire
        self._interrupted = True
        self.sim.schedule_interrupt(event)

    def _close(self) -> None:
        """Abandon a process that is still alive (kernel teardown,
        :meth:`Simulation.close`): the generator is closed where it
        waits, so its ``finally`` blocks run and its frame lets go of
        everything it held; the process never fires."""
        if self._target is not None:
            self._target._detach()
        self._target = self._on_fire = None
        self._generator.close()

    # -- engine callback ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        sim = self.sim
        sim._active_process = self
        if self._interrupted:
            # We were interrupted while waiting: forget the original
            # target (its eventual firing must no longer resume us).
            self._interrupted = False
            target = self._target
            if target is not None and target is not event:
                cbs = target._callbacks
                if cbs is not None and cbs is not _PROCESSED:
                    if cbs.__class__ is list:
                        try:
                            cbs.remove(self._on_fire)
                        except ValueError:
                            pass
                    elif cbs is self._on_fire:
                        target._callbacks = None
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration as stop:
                # Inlined succeed(): a finishing process is by
                # definition still pending, so skip the re-trigger guard.
                self._target = self._on_fire = None
                sim._active_process = None
                self._ok = True
                self._value = getattr(stop, "value", None)
                sim._seq = seq = sim._seq + 1
                heappush(sim._queue, (sim._now, seq, self))
                return
            except Interrupt as exc:
                # The generator re-raised an interrupt it did not handle.
                self._target = self._on_fire = None
                sim._active_process = None
                self._defused = True
                self.fail(exc)
                return
            except BaseException as exc:
                self._target = self._on_fire = None
                sim._active_process = None
                self.fail(exc)
                return
            cls = target.__class__
            if cls is not Timeout and cls is not Event and not isinstance(
                target, Event
            ):
                exc = RuntimeError(
                    f"process yielded a non-event: {target!r}"
                )
                event = Event(sim)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if target.sim is not sim:
                exc = RuntimeError("process yielded an event from another simulation")
                event = Event(sim)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            cbs = target._callbacks
            if cbs is _PROCESSED:
                # Already fired: resume immediately with its value.
                event = target
                continue
            if cbs is None:
                target._callbacks = self._on_fire
            elif cbs.__class__ is list:
                cbs.append(self._on_fire)
            else:
                target._callbacks = [cbs, self._on_fire]
            self._target = target
            break
        sim._active_process = None
