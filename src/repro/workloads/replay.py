"""Open-loop trace replay (paper Section IV-C).

Replays a block I/O trace against a :class:`~repro.sched.device.BlockDevice`
preserving the original arrival times (open loop: arrivals do not slow
down when the device is overloaded, exactly like the paper's replayer).

:class:`TraceReplayer` accepts a :class:`~repro.traces.record.Trace`, a
:class:`~repro.traces.store.StoredTrace` or an iterable of time-sorted
``Trace`` chunks (e.g. :func:`repro.traces.io.iter_trace_chunks`), and
feeds all three through one :class:`_ReplayCursor`: due times, clipped
sector counts and wrapped LBNs are computed block-wise with numpy
(blocks of ``_FIRST_BLOCK`` records, doubling up to ``_BLOCK``), and the
engine is fed from an array cursor that reuses a single scheduling
event (a freelist of one) instead of allocating a record object, a
generator frame and a ``Timeout`` per request.  A chunked trace
replays in bounded memory.

The schedule the cursor keeps is a checked contract: record *i* is
submitted at ``s_i``, where ``due_i = (t_i - t_0) * time_scale + start``,
``s_0 = start`` and ``s_i = s_{i-1}`` if ``due_i <= s_{i-1}``, else
``s_{i-1} + (due_i - s_{i-1})`` (a wait is scheduled as ``now + delay``,
and the record it waits for is submitted when it fires, even if float
rounding lands marginally before ``due_i``).
:meth:`repro.verify.invariants.InvariantSink.expect_replay` holds every
foreground submit to it, bit for bit.
"""

from __future__ import annotations

from heapq import heappush
from itertools import chain
from typing import Iterable, List, Optional

import numpy as np

from repro.disk.commands import DiskCommand
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import Interrupt, Simulation
from repro.sim.events import _PENDING, Event
from repro.traces.record import Trace

#: Records converted from numpy to Python scalars per batch, at most.
#: Bounds the Python-object footprint of a replay regardless of trace
#: size.
_BLOCK = 32768
#: The first batch: each later one doubles, up to :data:`_BLOCK`, so a
#: horizon that stops the replay after N records has converted fewer
#: than 2N + ``_FIRST_BLOCK`` of them.
_FIRST_BLOCK = 1024


class _ReplayCursor(Event):
    """The array-fed cursor behind every :class:`TraceReplayer`.

    The cursor is itself an :class:`Event` that succeeds when the trace
    is exhausted, as a :class:`Process` does when its generator
    returns, so ``sim.run(until=replayer.start())`` waits for the whole
    replay.  The ``(time, key, event)`` entries it pushes are what the
    request logs, the event counts and the benchmark digests are made
    of:

    * ``_start`` pushes one init event at the current time;
    * each wait reschedules one reused event object (``_fire_ev``, a
      freelist of size one) at ``now + (due - now)``, *not* ``due``;
    * a record whose wait was scheduled is submitted unconditionally
      when it fires, then same-time records drain while ``due <= now``;
    * exhaustion pushes the cursor itself as a completion event;
    * ``_stop`` pushes one urgent interrupt event;
    * its requests are posted (:meth:`BlockDevice.post`): open loop, it
      never waits on one, so their completions push nothing.
    """

    __slots__ = (
        "device",
        "time_scale",
        "count",
        "_on_fire",
        "_fire_ev",
        "_init_ev",
        "_chunks",
        "_chunk",
        "_chunk_pos",
        "_origin",
        "_start_at",
        "_last_time",
        "_total",
        "_dues",
        "_lbns",
        "_secs",
        "_writes",
        "_block_len",
        "_block_size",
        "_idx",
        "_designated",
        "_done",
    )

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        chunks: Iterable[Trace],
        time_scale: float,
    ) -> None:
        super().__init__(sim)
        self.device = device
        self.time_scale = time_scale
        #: Requests submitted so far.
        self.count = 0
        self._on_fire = self._fire
        self._fire_ev: Optional[Event] = None
        self._init_ev: Optional[Event] = None
        self._chunks = iter(chunks)
        self._chunk: Optional[Trace] = None
        self._chunk_pos = 0
        self._origin: Optional[float] = None
        self._start_at: Optional[float] = None
        self._last_time: Optional[float] = None
        self._total = device.drive.total_sectors
        self._dues: List[float] = []
        self._lbns: List[int] = []
        self._secs: List[int] = []
        self._writes: List[bool] = []
        self._block_len = 0
        self._block_size = _FIRST_BLOCK
        self._idx = 0
        self._designated = False
        self._done = False

    @property
    def is_alive(self) -> bool:
        """``True`` until exhaustion or stop (mirrors ``Process``)."""
        return self._value is _PENDING

    # -- lifecycle ---------------------------------------------------------
    def _start(self) -> "_ReplayCursor":
        """Schedule the init event (mirrors ``Process.__init__``)."""
        sim = self.sim
        init = Event.__new__(Event)
        init.sim = sim
        init._callbacks = self._on_fire
        init._value = None
        init._ok = True
        init._defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, init))
        self._init_ev = init
        return self

    def _stop(self) -> None:
        """Interrupt-equivalent: stop replaying at the current time."""
        if self._done or not self.is_alive:
            return
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt("stop")
        ev._defused = True
        ev._callbacks = self._interrupt_fire
        self.sim.schedule_interrupt(ev)

    def _interrupt_fire(self, _event: Event) -> None:
        if self._done or not self.is_alive:
            return
        self._done = True
        if self._start_at is None:
            # Interrupted before the init event fired: fail with the
            # interrupt (pre-defused), as an interrupted process does.
            self._close()
            self._defused = True
            Event.fail(self, Interrupt("stop"))
        else:
            self._finish()

    def _close(self) -> None:
        """Let go of the bound ``_fire`` and of the two events that
        carry it (mirrors ``Process._close`` and the target-detach in
        ``Process._resume``; also how a cursor that ends on its own
        stops referring to itself).  An event still in the heap pops
        later as a no-op."""
        for ev in (self._fire_ev, self._init_ev):
            if ev is not None:
                ev._detach()
        self._on_fire = self._fire_ev = self._init_ev = None

    def _finish(self) -> None:
        """Completion event (mirrors the inlined succeed on StopIteration)."""
        self._done = True
        self._close()
        sim = self.sim
        self._ok = True
        self._value = None
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, self))

    # -- hot path ----------------------------------------------------------
    def _fire(self, _event: Event) -> None:
        sim = self.sim
        now = sim._now
        if self._start_at is None:
            self._start_at = now
        idx = self._idx
        if self._designated:
            # This firing was scheduled for the record at ``idx``:
            # submit it unconditionally.
            self._designated = False
            self._submit(idx)
            idx += 1
        dues = self._dues
        n = self._block_len
        while True:
            if idx >= n:
                if not self._next_block():
                    self._idx = idx
                    self._finish()
                    return
                idx = 0
                dues = self._dues
                n = self._block_len
            if dues[idx] > now:
                break
            self._submit(idx)
            idx += 1
        self._idx = idx
        self._designated = True
        ev = self._fire_ev
        if ev is None:
            ev = self._fire_ev = Event.__new__(Event)
            ev.sim = sim
            ev._value = None
            ev._ok = True
            ev._defused = False
        # Reuse the one scheduling event: same seq consumption and the
        # same ``now + delay`` float arithmetic as a fresh Timeout.
        ev._callbacks = self._on_fire
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (now + (dues[idx] - now), seq, ev))

    def _submit(self, idx: int) -> None:
        if self._writes[idx]:
            command = DiskCommand.write(self._lbns[idx], self._secs[idx])
        else:
            command = DiskCommand.read(self._lbns[idx], self._secs[idx])
        self.device.post(
            IORequest(command, priority=PriorityClass.BE, source="foreground")
        )
        self.count += 1

    # -- block conversion --------------------------------------------------
    def _next_block(self) -> bool:
        chunk = self._chunk
        pos = self._chunk_pos
        while chunk is None or pos >= len(chunk):
            chunk = next(self._chunks, None)
            if chunk is None:
                self._chunk = None
                return False
            if len(chunk) == 0:
                chunk = None
                continue
            t0 = float(chunk.times[0])
            if self._last_time is not None and t0 < self._last_time:
                raise ValueError(
                    "trace chunks must be globally time-sorted: chunk "
                    f"starts at {t0} after a record at {self._last_time}"
                )
            if self._origin is None:
                self._origin = t0
            self._chunk = chunk
            pos = 0
        size = self._block_size
        self._block_size = min(2 * size, _BLOCK)
        end = min(pos + size, len(chunk))
        self._chunk_pos = end
        self._convert(chunk, pos, end)
        self._last_time = float(chunk.times[end - 1])
        return True

    def _convert(self, chunk: Trace, a: int, b: int) -> None:
        # due = (time - origin) * time_scale + start_at, elementwise
        # IEEE double, so block size moves no bit.
        dues = (chunk.times[a:b] - self._origin) * self.time_scale + self._start_at
        secs = np.maximum(1, chunk.sectors[a:b])
        lbns = chunk.lbns[a:b]
        total = self._total
        over = lbns + secs > total
        if over.any():
            lbns = np.where(over, lbns % np.maximum(1, total - secs), lbns)
        self._dues = dues.tolist()
        self._lbns = lbns.tolist()
        self._secs = secs.tolist()
        self._writes = chunk.is_write[a:b].tolist()
        self._block_len = b - a


class TraceReplayer:
    """Replay a trace open-loop.

    Requests are best-effort reads and writes from source
    ``"foreground"``.  If the traced disk was larger than the simulated
    one, an LBN past the end wraps modulo the simulated size.

    Parameters
    ----------
    sim, device:
        Simulation context and target device.
    trace:
        A :class:`Trace`, a :class:`~repro.traces.store.StoredTrace`
        (streamed zero-copy from its memory-mapped chunk files, one
        chunk resident at a time) or an iterable of time-sorted
        :class:`Trace` chunks.
    time_scale:
        Multiplier on inter-arrival times (e.g. 0.5 replays twice as fast).
    """

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        trace,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        from repro.traces.store import StoredTrace

        accepts = (
            "TraceReplayer replays a Trace, a StoredTrace or an iterable "
            "of Trace chunks"
        )
        if isinstance(trace, Trace):
            chunks = (trace,)
        elif isinstance(trace, StoredTrace):
            # No chunk is mapped (or digest-checked) until the replay
            # actually starts.
            chunks = trace.iter_chunks()
        elif isinstance(trace, Iterable):
            iterator = iter(trace)
            first = next(iterator, None)
            if first is not None and not isinstance(first, Trace):
                raise TypeError(f"{accepts}, not {type(first).__name__} items")
            chunks = () if first is None else chain((first,), iterator)
        else:
            raise TypeError(f"{accepts}, not {type(trace).__name__}")
        self.sim = sim
        self.device = device
        self.time_scale = time_scale
        self._chunks: Iterable[Trace] = chunks
        self._cursor: Optional[_ReplayCursor] = None

    @property
    def submitted(self) -> int:
        """Requests submitted so far."""
        return 0 if self._cursor is None else self._cursor.count

    def start(self) -> _ReplayCursor:
        """Begin replaying; returns the cursor, an event that fires when
        the trace is exhausted."""
        if self._cursor is not None:
            raise RuntimeError("replayer already started")
        self._cursor = _ReplayCursor(
            self.sim, self.device, self._chunks, self.time_scale
        )
        return self._cursor._start()

    def stop(self) -> None:
        if self._cursor is not None:
            self._cursor._stop()
