"""Deadline scheduler: elevator order with per-request expiry.

A simplified version of the Linux deadline scheduler: requests are
served in C-LOOK order, but each carries a deadline (:data:`READ_EXPIRE`
/ :data:`WRITE_EXPIRE` after submission); when the oldest request has
expired, the elevator jumps to it.  Included as an ablation baseline —
it has no prioritisation, so it cannot protect foreground traffic from
a scrubber, which is the paper's point about scheduler support.
"""

from __future__ import annotations

from repro.disk.commands import Opcode
from repro.sched.base import IOSchedulerBase, Selection
from repro.sched.elevator import ElevatorQueue
from repro.sched.request import IORequest

#: Read and write deadlines: Linux deadline-iosched's ``read_expire``
#: (HZ / 2) and ``write_expire`` (5 * HZ) defaults.
READ_EXPIRE = 0.5
WRITE_EXPIRE = 5.0


class DeadlineScheduler(IOSchedulerBase):
    """C-LOOK with expiry-driven jumps."""

    name = "deadline"

    def __init__(self) -> None:
        self._elevator = ElevatorQueue()
        self._deadlines = {}
        self._position = 0

    def add(self, request: IORequest, now: float) -> None:
        expire = (
            WRITE_EXPIRE if request.command.opcode is Opcode.WRITE else READ_EXPIRE
        )
        self._deadlines[request] = now + expire
        self._elevator.add(request)

    def select(self, now: float) -> Selection:
        if not self._elevator._requests:
            return None, None
        oldest = self._elevator.oldest()
        if self._deadlines[oldest] <= now:
            choice = oldest
            self._elevator.remove(oldest)
        else:
            choice = self._elevator.pop(self._position)
        del self._deadlines[choice]
        return choice, None

    def on_dispatch(self, request: IORequest, now: float) -> None:
        command = request.command
        self._position = command.lbn + command.sectors

    def __len__(self) -> int:
        return len(self._elevator)
