"""The scrubbing framework (paper Section III-C, Fig. 2).

The paper implements scrubbing inside the Linux block layer: one
scrubber thread per block device sleeps until activated, then walks
the disk issuing ``VERIFY`` commands according to a pluggable
algorithm, going back to sleep between requests.  New algorithms take
"approx. 50 LoC" — the same is true here: an algorithm is a small
iterator class over ``(lbn, sectors)`` extents.

Two integration styles mirror the paper's kernel/user comparison:

* **kernel style** (default): scrub requests are disguised as ordinary
  reads so the I/O scheduler can sort them and apply priority classes;
* **user style** (``soft_barrier=True``): requests behave like
  pass-through ``ioctl`` commands — soft barriers that no scheduler
  optimisation applies to and whose priority class is ignored.

Rate limiting supports the two timing disciplines observed in the
paper's Fig. 3: ``delay_mode="gap"`` sleeps ``delay`` seconds after a
request *completes* (the kernel scrubber), while
``delay_mode="interval"`` issues one request every ``delay`` seconds
measured issue-to-issue (the user-level scrubber's timer loop), which
is why a delayed user scrubber sustains the full ``size/delay``
throughput while the kernel scrubber pays ``size/(delay + service)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.disk.commands import SECTOR_SIZE, CommandStatus, DiskCommand
from repro.faults.remediation import (
    RemediationPolicy,
    RemediationStats,
    remediate_extent,
)
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import Interrupt, Process, ReusableTimeout, Simulation

#: One scrub extent: starting LBN and sector count.
Extent = Tuple[int, int]


class ScrubAlgorithm:
    """Order in which a full disk pass visits its sectors.

    Subclasses implement :meth:`reset` and :meth:`next_extent`; the
    framework calls ``reset`` at the start of every pass.
    """

    def reset(self, total_sectors: int, request_sectors: int) -> None:
        raise NotImplementedError

    def next_extent(self) -> Optional[Extent]:
        """The next extent to verify, or ``None`` when the pass is done."""
        raise NotImplementedError


class Scrubber:
    """A per-device background scrubbing thread.

    Parameters
    ----------
    sim, device:
        Simulation context and the device to scrub.
    algorithm:
        Scrub order (:class:`~repro.core.sequential.SequentialScrub`,
        :class:`~repro.core.staggered.StaggeredScrub`, ...).
    request_bytes:
        Scrub request size (the paper's key tunable, 64 KB – 4 MB).
    priority:
        CFQ class for kernel-style requests (``IDLE`` or ``BE``).
    soft_barrier:
        ``True`` selects user-style pass-through semantics.
    delay / delay_mode:
        Rate limiting between requests; see module docstring.
    max_passes:
        Stop after this many full-disk passes (``None`` = run forever).
    remediation:
        Error-lifecycle policy.  When set and a scrub ``VERIFY`` comes
        back ``MEDIUM_ERROR``, the scrubber localises the bad sector by
        splitting the extent (bounded backoff between probes), remaps
        it to the spare pool, and re-verifies the remap — the full
        detection-to-repair lifecycle.  ``None`` counts errors but
        leaves the sectors bad.
    """

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        algorithm: ScrubAlgorithm,
        request_bytes: int = 64 * 1024,
        priority: PriorityClass = PriorityClass.IDLE,
        soft_barrier: bool = False,
        delay: float = 0.0,
        delay_mode: str = "gap",
        max_passes: Optional[int] = None,
        source: str = "scrubber",
        remediation: Optional[RemediationPolicy] = None,
    ) -> None:
        if request_bytes % SECTOR_SIZE:
            raise ValueError(
                f"request_bytes must be a multiple of {SECTOR_SIZE}: {request_bytes}"
            )
        if delay < 0:
            raise ValueError(f"delay must be non-negative: {delay}")
        if delay_mode not in ("gap", "interval"):
            raise ValueError(f"unknown delay_mode: {delay_mode!r}")
        if max_passes is not None and max_passes <= 0:
            raise ValueError(f"max_passes must be positive: {max_passes}")
        self.sim = sim
        self.device = device
        self.algorithm = algorithm
        self.request_sectors = request_bytes // SECTOR_SIZE
        self.priority = priority
        self.soft_barrier = soft_barrier
        self.delay = delay
        self.delay_mode = delay_mode
        self.max_passes = max_passes
        self.source = source
        self.remediation = remediation

        self.requests_issued = 0
        self.bytes_scrubbed = 0
        self.passes_completed = 0
        #: Scrub VERIFY requests the drive failed (detections, not sectors).
        self.errors_seen = 0
        #: Lifecycle counters (splits, remaps, failures).
        self.remediation_stats = RemediationStats()
        self._process: Optional[Process] = None
        self._draining = False
        #: Pooled rate-limit sleep timer: one event recycled across the
        #: pass loop instead of one Timeout allocation per request.  A
        #: timer abandoned mid-sleep (the scrubber was interrupted) is
        #: not yet processed, so the ``.processed`` guard falls back to
        #: a fresh allocation for that sleep.
        self._sleep = ReusableTimeout(sim)
        self._telemetry = sim.telemetry

    def start(self) -> Process:
        """Activate scrubbing for this device."""
        if self._process is not None and self._process.is_alive:
            raise RuntimeError("scrubber already running")
        self._draining = False
        self._process = self.sim.process(self._run())
        return self._process

    def stop(self) -> None:
        """Deactivate the scrubber (it exits at its next wait point)."""
        if self._process is None or not self._process.is_alive:
            return
        self._process.interrupt("stop")

    def request_stop(self) -> None:
        """Graceful stop: finish the in-flight extent (and any error
        remediation it triggered), then exit — nothing is interrupted
        mid-lifecycle, so every detected error still ends remapped."""
        self._draining = True

    def throughput(self, duration: float) -> float:
        """Scrubbed bytes/second over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        return self.bytes_scrubbed / duration

    @property
    def sectors_remapped(self) -> int:
        """Bad sectors this scrubber localised, remapped and re-verified."""
        return self.remediation_stats.sectors_remapped

    # -- the scrubber thread ----------------------------------------------------
    def _run(self):
        total = self.device.drive.total_sectors
        sink = self._telemetry
        pass_bytes = total * SECTOR_SIZE
        try:
            while self.max_passes is None or self.passes_completed < self.max_passes:
                self.algorithm.reset(total, self.request_sectors)
                if sink is not None:
                    sink.scrub_pass_started(
                        self.sim.now, self.source, self.passes_completed
                    )
                while True:
                    if self._draining:
                        return
                    extent = self.algorithm.next_extent()
                    if extent is None:
                        break
                    issue_time = self.sim.now
                    request = yield self._verify(*extent)
                    if sink is not None:
                        within = self.bytes_scrubbed - (
                            self.passes_completed * pass_bytes
                        )
                        sink.scrub_progress(
                            self.sim.now,
                            self.source,
                            min(1.0, within / pass_bytes) if pass_bytes else 1.0,
                        )
                    if request.breakdown.status is CommandStatus.MEDIUM_ERROR:
                        self.errors_seen += 1
                        if sink is not None:
                            sink.fault_event(
                                self.sim.now,
                                "scrub_detection",
                                request.breakdown.error_lbn,
                                source=self.source,
                            )
                        if self.remediation is not None:
                            yield from remediate_extent(
                                self.sim,
                                self.device,
                                extent[0],
                                extent[1],
                                self.remediation,
                                self._verify,
                                self.remediation_stats,
                            )
                    if self.delay > 0:
                        if self.delay_mode == "gap":
                            wait = self.delay
                        else:
                            due = issue_time + self.delay
                            wait = due - self.sim.now if due > self.sim.now else None
                        if wait is not None:
                            sleep = self._sleep
                            yield (
                                sleep.arm(wait)
                                if sleep.processed
                                else self.sim.timeout(wait)
                            )
                self.passes_completed += 1
                if sink is not None:
                    sink.scrub_pass_completed(
                        self.sim.now,
                        self.source,
                        self.passes_completed - 1,
                        self.bytes_scrubbed,
                    )
        except Interrupt:
            return

    def _verify(self, lbn: int, sectors: int):
        request = IORequest(
            DiskCommand.verify(lbn, sectors),
            priority=self.priority,
            source=self.source,
            soft_barrier=self.soft_barrier,
        )
        completion = self.device.submit(request)
        self.requests_issued += 1
        self.bytes_scrubbed += sectors * SECTOR_SIZE
        return completion
