"""Block-layer I/O requests.

An :class:`IORequest` wraps a :class:`~repro.disk.commands.DiskCommand`
with scheduling metadata: the CFQ priority class, the submitting source
(used for per-queue accounting and statistics), and the *soft barrier*
flag that models how Linux treats pass-through ``ioctl`` commands.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.disk.commands import CommandStatus, DiskCommand

#: Submission sequence numbers, one stream for every device in the
#: process.
_sequence = itertools.count()


class PriorityClass(enum.IntEnum):
    """CFQ I/O priority classes, highest first."""

    RT = 0
    BE = 1
    IDLE = 2


class IORequest:
    """A single request travelling through the scheduler to the drive.

    Parameters
    ----------
    command:
        The disk command to execute.
    priority:
        CFQ class; ignored for soft barriers (the kernel dispatches
        pass-through commands in queue order regardless of class).
    source:
        Label of the submitting stream, e.g. ``"foreground"`` or
        ``"scrubber"``; CFQ keeps one BE queue per source.
    soft_barrier:
        ``True`` for user-level pass-through commands: never sorted or
        merged, and no request submitted after it may overtake it.

    :meth:`BlockDevice.submit <repro.sched.device.BlockDevice.submit>`
    sets ``seq`` (from :data:`_sequence`), ``submit_time`` and
    ``completion``; its dispatcher sets the rest.
    """

    __slots__ = (
        "command", "priority", "source", "soft_barrier", "seq",
        "submit_time", "dispatch_time", "complete_time", "completion",
        "breakdown",
    )

    def __init__(
        self,
        command: DiskCommand,
        priority: PriorityClass = PriorityClass.BE,
        source: str = "foreground",
        soft_barrier: bool = False,
    ) -> None:
        self.command = command
        self.priority = priority
        self.source = source
        self.soft_barrier = soft_barrier
        #: Monotonic submission sequence number (set once submitted).
        self.seq: Optional[int] = None
        self.submit_time: Optional[float] = None
        self.dispatch_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: Completion event, set by the owning BlockDevice at submit and
        #: dropped again when it is triggered (the event's value is this
        #: request; keeping both directions would be a reference cycle).
        self.completion = None
        #: Drive-level timing breakdown, set at completion.
        self.breakdown = None

    # -- derived timings ------------------------------------------------------
    @property
    def response_time(self) -> float:
        """Submit-to-complete latency."""
        if self.submit_time is None or self.complete_time is None:
            raise RuntimeError(f"{self!r} has not completed")
        return self.complete_time - self.submit_time

    @property
    def wait_time(self) -> float:
        """Submit-to-dispatch queueing delay."""
        if self.submit_time is None or self.dispatch_time is None:
            raise RuntimeError(f"{self!r} has not been dispatched")
        return self.dispatch_time - self.submit_time

    @property
    def service_time(self) -> float:
        """Dispatch-to-complete drive service time."""
        if self.dispatch_time is None or self.complete_time is None:
            raise RuntimeError(f"{self!r} has not completed")
        return self.complete_time - self.dispatch_time

    @property
    def bytes(self) -> int:
        return self.command.bytes

    @property
    def status(self):
        """Drive completion status (``CommandStatus``) of this request."""
        if self.breakdown is None:
            raise RuntimeError(f"{self!r} has not completed")
        return self.breakdown.status

    @property
    def failed(self) -> bool:
        """``True`` when the drive failed the request (``MEDIUM_ERROR``)."""
        return self.breakdown is not None and (
            self.breakdown.status is not CommandStatus.GOOD
        )

    def __repr__(self) -> str:
        barrier = " barrier" if self.soft_barrier else ""
        return (
            f"<IORequest {self.command.opcode.value} lbn={self.command.lbn} "
            f"x{self.command.sectors} {self.priority.name}{barrier} "
            f"src={self.source}>"
        )
