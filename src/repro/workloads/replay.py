"""Open-loop trace replay (paper Section IV-C).

Replays a block I/O trace against a :class:`~repro.sched.device.BlockDevice`
preserving the original arrival times (open loop: arrivals do not slow
down when the device is overloaded, exactly like the paper's replayer).

Two feeds, one contract
-----------------------
:class:`TraceReplayer` accepts three input shapes:

* an iterable of duck-typed records (anything with ``time``, ``lbn``,
  ``sectors`` and ``is_write`` attributes, in particular
  :class:`repro.traces.TraceRecord`) — the original generator-based
  path, kept verbatim;
* a :class:`~repro.traces.record.Trace` — the batched fast path: a
  :class:`_ReplayCursor` pre-computes due times, clipped sector counts
  and wrapped LBNs block-wise with numpy (blocks of ``_FIRST_BLOCK``
  records, doubling up to ``_BLOCK``) and feeds the engine from an
  array cursor that reuses a single scheduling event (a freelist of
  one) instead of allocating a record object, a generator frame and a
  ``Timeout`` per request;
* an iterable of :class:`Trace` chunks — the same cursor streaming
  over chunks (e.g. :func:`repro.traces.io.iter_trace_chunks`), so a
  multi-GB trace replays in bounded memory.

The two paths are **bit-identical**, including telemetry: the cursor
consumes exactly the sequence numbers the generator path would — one
for its init event, one per scheduled wait, one for the completion
event — computes due times with the same float expression, and
replicates the generator's submit-on-wakeup semantics (a record whose
wait was scheduled is submitted unconditionally on wakeup, even when
float rounding wakes the clock marginally before the nominal due
time).  A trace replayed through either feed produces the same request
stream, the same event count, and the same final state.
"""

from __future__ import annotations

from heapq import heappush
from itertools import chain
from typing import Iterable, List, Optional

import numpy as np

from repro.disk.commands import DiskCommand
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import Interrupt, Process, Simulation
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
    """Array-fed replay driver: the batched :class:`TraceReplayer` path.

    The cursor is itself an :class:`Event` that succeeds when the trace
    is exhausted — exactly as a :class:`Process` does when its
    generator returns — so ``sim.run(until=replayer.start())`` behaves
    identically on both feeds.

    Event-for-event parity with the generator path is a hard
    invariant, relied on by the determinism tests and the benchmark's
    bit-identity gate:

    * ``_start`` pushes one init event, mirroring ``Process.__init__``;
    * each wait reschedules one reused event object (``_fire_ev``, a
      freelist of size one) through the same ``seq``/``heappush``
      sequence a ``Timeout`` would consume, at the same float time
      (``now + (due - now)``, *not* ``due`` — the generator path's
      rounding is part of the contract);
    * a record whose wait was scheduled is submitted unconditionally on
      wakeup (the generator never re-checks ``due`` after its
      ``timeout`` fires), then same-time records drain while
      ``due <= now``;
    * exhaustion pushes the cursor itself as a completion event,
      mirroring ``Process._resume``'s ``StopIteration`` handling.
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
        #: Requests submitted so far (mirrors the legacy counter).
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
            # Interrupted before the init event fired: the generator
            # path fails the process with the interrupt (pre-defused).
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
            # submit it unconditionally, like the generator resuming
            # after its timeout.
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
        self.device.submit(
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
        # The exact float expression of the generator path —
        # due = start_at + (time - origin) * time_scale — elementwise
        # IEEE double either way, so dues are bit-identical.
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
    records:
        A :class:`Trace` (batched fast path), a
        :class:`~repro.traces.store.StoredTrace` (streamed zero-copy
        from its memory-mapped chunk files — one chunk resident at a
        time), an iterable of :class:`Trace` chunks (streamed batched
        path), or an iterable of record-like objects sorted-or-not by
        arrival time (legacy path; sorted here).
    time_scale:
        Multiplier on inter-arrival times (e.g. 0.5 replays twice as fast).
    """

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        records,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self.sim = sim
        self.device = device
        self.time_scale = time_scale
        self._submitted = 0
        self._process: Optional[Process] = None
        self._cursor: Optional[_ReplayCursor] = None
        self.records: Optional[List] = None
        self._chunks: Optional[Iterable[Trace]] = None
        from repro.traces.store import StoredTrace

        if isinstance(records, Trace):
            self._chunks = (records,)
        elif isinstance(records, StoredTrace):
            # Explicit branch so no chunk is mapped (or digest-checked)
            # until the replay actually starts.
            self._chunks = records.iter_chunks()
        else:
            iterator = iter(records)
            first = next(iterator, None)
            if first is None:
                self.records = []
            elif isinstance(first, Trace):
                self._chunks = chain((first,), iterator)
            else:
                self.records = sorted(
                    chain((first,), iterator), key=lambda r: r.time
                )

    @property
    def submitted(self) -> int:
        """Requests submitted so far (either feed)."""
        if self._cursor is not None:
            return self._cursor.count
        return self._submitted

    def start(self):
        """Begin replaying; returns an event that fires on completion.

        The legacy feed returns the driving :class:`Process`; the
        batched feed returns the :class:`_ReplayCursor` (also an
        :class:`~repro.sim.events.Event`).  Both can be waited on.
        """
        if self._process is not None or self._cursor is not None:
            raise RuntimeError("replayer already started")
        if self.records is None:
            self._cursor = _ReplayCursor(
                self.sim, self.device, self._chunks, self.time_scale
            )
            return self._cursor._start()
        self._process = self.sim.process(self._run())
        return self._process

    def stop(self) -> None:
        if self._cursor is not None:
            self._cursor._stop()
            return
        if self._process is None or not self._process.is_alive:
            return
        self._process.interrupt("stop")

    def _run(self):
        if not self.records:
            return
        total = self.device.drive.total_sectors
        origin = self.records[0].time
        start_at = self.sim.now
        try:
            for record in self.records:
                due = start_at + (record.time - origin) * self.time_scale
                if due > self.sim.now:
                    yield self.sim.timeout(due - self.sim.now)
                sectors = max(1, int(record.sectors))
                lbn = int(record.lbn)
                if lbn + sectors > total:
                    lbn = lbn % max(1, total - sectors)
                command = (
                    DiskCommand.write(lbn, sectors)
                    if record.is_write
                    else DiskCommand.read(lbn, sectors)
                )
                self.device.submit(
                    IORequest(command, priority=PriorityClass.BE, source="foreground")
                )
                self._submitted += 1
        except Interrupt:
            return
