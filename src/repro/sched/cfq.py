"""A CFQ-like I/O scheduler.

Models the aspects of the Linux 2.6.35 Completely Fair Queueing
scheduler that the paper's experiments exercise:

* **Priority classes** — RT > BE > Idle.  The Idle class is dispatched
  only after the disk has seen no foreground (RT/BE) activity for
  ``idle_gate`` seconds (Section III-B reports 10 ms).
* **BE time slices** — each submitting source owns the disk for
  :data:`SLICE_SYNC` seconds at a time; an owner whose queue goes empty
  is *anticipated* for :data:`SLICE_IDLE` seconds before the slice is
  handed over, which is what lets a closed-loop sequential stream keep
  the disk across its sub-millisecond think gaps.
* **Soft barriers** — pass-through commands (user-level ``ioctl``
  VERIFYs) are never sorted or merged and pin queue order: requests
  submitted after a barrier cannot overtake it, and the barrier itself
  ignores priority classes entirely.  This reproduces the paper's
  observation that I/O priorities have no effect on a user-level
  scrubber (Fig. 3).

No request preemption is modelled (a dispatched request runs to
completion), which is also how the disk itself behaves; a foreground
request arriving mid-scrub simply collides, exactly the paper's notion
of *collision*.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.sched.base import IOSchedulerBase, Selection
from repro.sched.elevator import ElevatorQueue
from repro.sched.request import IORequest, PriorityClass

#: Length of a BE source's time slice: Linux 2.6.35 CFQ's
#: ``cfq_slice_sync`` default (HZ / 10), the scheduler of Section III-B.
SLICE_SYNC = 0.100

#: How long an empty BE owner queue is anticipated before it loses its
#: slice: Linux 2.6.35 CFQ's ``cfq_slice_idle`` default (HZ / 125).
SLICE_IDLE = 0.008


class CFQScheduler(IOSchedulerBase):
    """CFQ model with idle-class gating, BE slices and soft barriers.

    Parameters
    ----------
    idle_gate:
        Foreground quiescence (seconds) required before Idle-class
        requests may dispatch.  The Linux default the paper reports is
        10 ms; the paper also observes that the *measured* behaviour of
        CFQ corresponded to a much smaller effective gate, which can be
        reproduced by passing a value near zero.
    """

    name = "cfq"

    def __init__(self, idle_gate: float = 0.010) -> None:
        if idle_gate < 0:
            raise ValueError(f"idle_gate must be non-negative: {idle_gate}")
        self.idle_gate = idle_gate

        self._rt = ElevatorQueue()
        self._be: Dict[str, ElevatorQueue] = {}
        #: Requests queued over all of ``_be`` (the sum of their
        #: lengths), so ``select`` sees a BE backlog without a scan.
        self._be_count = 0
        self._be_rr: Deque[str] = deque()
        self._idle = ElevatorQueue()
        self._barriers: Deque[IORequest] = deque()

        self._position = 0
        self._last_fg_activity = float("-inf")
        self._be_owner: Optional[str] = None
        self._be_slice_end = float("-inf")
        self._be_owner_last_activity = float("-inf")

    # -- submission ------------------------------------------------------------
    def add(self, request: IORequest, now: float) -> None:
        if request.soft_barrier:
            self._barriers.append(request)
            self._last_fg_activity = max(self._last_fg_activity, now)
            return
        if request.priority is PriorityClass.RT:
            self._rt.add(request)
        elif request.priority is PriorityClass.BE:
            queue = self._be.get(request.source)
            if queue is None:
                queue = self._be[request.source] = ElevatorQueue()
            if request.source not in self._be_rr:
                self._be_rr.append(request.source)
            queue.add(request)
            self._be_count += 1
            if request.source == self._be_owner:
                self._be_owner_last_activity = now
        else:
            self._idle.add(request)
        if request.priority is not PriorityClass.IDLE:
            self._last_fg_activity = max(self._last_fg_activity, now)

    # -- selection ---------------------------------------------------------------
    def select(self, now: float) -> Selection:
        if self._barriers:
            return self._select_with_barrier(now)
        if self._rt._requests:
            return self._rt.pop(self._position), None
        if self._be_count:
            return self._select_be(now)
        if self._idle._requests:
            gate_open_at = self._last_fg_activity + self.idle_gate
            if now >= gate_open_at:
                return self._idle.pop(self._position), None
            return None, gate_open_at
        return None, None

    def _select_with_barrier(self, now: float) -> Selection:
        """Queue-order dispatch while a barrier is pending.

        Everything submitted before the oldest barrier drains first (in
        submission order — sorting around a barrier is forbidden), then
        the barrier itself.  Requests submitted after the barrier wait.
        """
        barrier = self._barriers[0]
        choice, home = barrier, None
        for queue in self._all_queues():
            oldest = queue.oldest()
            if oldest is not None and oldest.seq < choice.seq:
                choice, home = oldest, queue
        if home is None:
            self._barriers.popleft()
        else:
            home.remove(choice)
            if choice.priority is PriorityClass.BE:
                self._be_count -= 1
        return choice, None

    def _select_be(self, now: float) -> Selection:
        owner_queue = self._be.get(self._be_owner) if self._be_owner else None
        slice_live = self._be_owner is not None and now < self._be_slice_end
        if slice_live and owner_queue is not None and owner_queue._requests:
            self._be_owner_last_activity = now
            self._be_count -= 1
            return owner_queue.pop(self._position), None
        if slice_live and owner_queue is not None:
            # Owner queue empty: anticipate its next request briefly.
            anticipation_end = self._be_owner_last_activity + SLICE_IDLE
            if now < anticipation_end:
                return None, min(self._be_slice_end, anticipation_end)
        # Hand the slice to the next backlogged source, round robin.
        for _ in range(len(self._be_rr)):
            source = self._be_rr[0]
            self._be_rr.rotate(-1)
            queue = self._be[source]
            if queue._requests:
                self._be_owner = source
                self._be_slice_end = now + SLICE_SYNC
                self._be_owner_last_activity = now
                self._be_count -= 1
                return queue.pop(self._position), None
        return None, None  # unreachable while _be_count > 0

    # -- notifications --------------------------------------------------------------
    def on_dispatch(self, request: IORequest, now: float) -> None:
        command = request.command
        self._position = command.lbn + command.sectors
        if request.soft_barrier or request.priority is not PriorityClass.IDLE:
            self._last_fg_activity = max(self._last_fg_activity, now)
        if (
            request.priority is PriorityClass.BE
            and not request.soft_barrier
            and request.source == self._be_owner
        ):
            self._be_owner_last_activity = now

    def on_complete(self, request: IORequest, now: float) -> None:
        if request.soft_barrier or request.priority is not PriorityClass.IDLE:
            self._last_fg_activity = max(self._last_fg_activity, now)
        if (
            request.priority is PriorityClass.BE
            and not request.soft_barrier
            and request.source == self._be_owner
        ):
            self._be_owner_last_activity = now

    # -- helpers -----------------------------------------------------------------------
    def _all_queues(self):
        yield self._rt
        yield from self._be.values()
        yield self._idle

    def __len__(self) -> int:
        return (
            len(self._rt) + self._be_count + len(self._idle) + len(self._barriers)
        )
