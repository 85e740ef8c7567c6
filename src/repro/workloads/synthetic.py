"""Closed-loop synthetic foreground workloads (paper Section IV-B).

Two generators mirror the paper's synthetic experiments:

* :class:`SequentialReader` — picks a random sector, reads the
  following :data:`CHUNK_BYTES` (8 MB) in ``request_bytes`` (default
  64 KB) sequential reads, then thinks for an exponentially distributed
  time (mean 100 ms by default) and repeats.
* :class:`RandomReader` — reads ``request_bytes`` from a uniformly
  random location, thinking between requests.

Both are *closed loop*: the next request is issued only after the
previous one completed plus a small host ``turnaround`` (syscall and
application processing), which is what creates the sub-millisecond
disk-idle gaps CFQ's anticipation machinery cares about.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.disk.commands import SECTOR_SIZE, DiskCommand
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import Interrupt, Process, Simulation

#: Bytes a :class:`SequentialReader` reads from one random start before
#: it thinks: the 8 MB chunks of the paper's sequential workload
#: (Section IV-B).
CHUNK_BYTES = 8 * 1024 * 1024


class _ClosedLoopWorkload:
    """Shared machinery: lifecycle, counters, think times."""

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        rng: np.random.Generator,
        request_bytes: int = 64 * 1024,
        think_mean: float = 0.100,
        turnaround: float = 0.0002,
        priority: PriorityClass = PriorityClass.BE,
        source: str = "foreground",
    ) -> None:
        if request_bytes % SECTOR_SIZE:
            raise ValueError(
                f"request_bytes must be a multiple of {SECTOR_SIZE}: {request_bytes}"
            )
        if think_mean < 0 or turnaround < 0:
            raise ValueError("think_mean and turnaround must be non-negative")
        self.sim = sim
        self.device = device
        self.rng = rng
        self.request_sectors = request_bytes // SECTOR_SIZE
        self.think_mean = think_mean
        self.turnaround = turnaround
        self.priority = priority
        self.source = source
        self.requests_issued = 0
        self.bytes_read = 0
        self._process: Optional[Process] = None

    def start(self) -> Process:
        """Launch the workload's simulation process."""
        if self._process is not None:
            raise RuntimeError("workload already started")
        self._process = self.sim.process(self._run())
        return self._process

    def stop(self) -> None:
        """Interrupt the workload (it exits at its next wait point)."""
        if self._process is None or not self._process.is_alive:
            return
        self._process.interrupt("stop")

    def _think(self):
        if self.think_mean > 0:
            return self.sim.timeout(self.rng.exponential(self.think_mean))
        return self.sim.timeout(0)

    def _do_read(self, lbn: int):
        request = IORequest(
            DiskCommand.read(lbn, self.request_sectors),
            priority=self.priority,
            source=self.source,
        )
        completion = self.device.submit(request)
        self.requests_issued += 1
        self.bytes_read += request.bytes
        return completion

    def _run(self):
        raise NotImplementedError


class SequentialReader(_ClosedLoopWorkload):
    """Random-chunk sequential reader: 8 MB chunks of 64 KB reads.

    The exponential think time falls between chunks (calibrated to the
    foreground throughput the paper reports); reads within a chunk are
    separated by the host ``turnaround`` only.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if CHUNK_BYTES % (self.request_sectors * SECTOR_SIZE):
            raise ValueError("request_bytes must divide the 8 MB chunk")
        self.chunk_sectors = CHUNK_BYTES // SECTOR_SIZE
        self.chunks_read = 0

    def _run(self):
        total = self.device.drive.total_sectors
        span = total - self.chunk_sectors
        try:
            while True:
                start = int(
                    self.rng.integers(0, span // self.request_sectors)
                ) * self.request_sectors
                for offset in range(0, self.chunk_sectors, self.request_sectors):
                    yield self._do_read(start + offset)
                    if self.turnaround > 0:
                        yield self.sim.timeout(self.turnaround)
                self.chunks_read += 1
                yield self._think()
        except Interrupt:
            return


class RandomReader(_ClosedLoopWorkload):
    """Uniformly random reads with exponential think times between them."""

    def _run(self):
        total = self.device.drive.total_sectors
        span = (total - self.request_sectors) // self.request_sectors
        try:
            while True:
                lbn = int(self.rng.integers(0, span)) * self.request_sectors
                yield self._do_read(lbn)
                if self.turnaround > 0:
                    yield self.sim.timeout(self.turnaround)
                yield self._think()
        except Interrupt:
            return
