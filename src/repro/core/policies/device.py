"""Full-stack Waiting scrubber (the paper's "our approach", Table III).

:class:`WaitingScrubber` implements the Waiting policy against a live
:class:`~repro.sched.device.BlockDevice`: it observes foreground
submissions/completions, arms a timer whenever the disk drains, and —
if the disk stays quiet for ``threshold`` seconds — fires fixed-size
``VERIFY`` requests back to back until the next foreground request
arrives.  The request that arrives mid-verify is the *collision*; its
extra wait is the slowdown the optimiser budgets for.

The scrubber self-schedules, so it does not rely on scheduler priority
support; pair it with :class:`~repro.sched.noop.NoopScheduler` to model
the paper's replacement of CFQ's gating logic.
"""

from __future__ import annotations

from typing import Optional

from repro.core.scrubber import ScrubAlgorithm
from repro.disk.commands import SECTOR_SIZE, CommandStatus, DiskCommand
from repro.faults.remediation import (
    RemediationPolicy,
    RemediationStats,
    remediate_extent,
)
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import AnyOf, Interrupt, Process, Simulation


class WaitingScrubber:
    """Waiting-policy scrubber bound to a block device.

    Parameters
    ----------
    sim, device, algorithm:
        As for :class:`~repro.core.scrubber.Scrubber`.
    threshold:
        Idle time (seconds) after the last foreground completion before
        firing begins.
    request_bytes:
        Fixed scrub request size (Section V-C: fixed beats adaptive).

    Its verifies are best-effort requests from source ``"scrubber"``:
    it paces itself, so no priority class is needed to keep it out of
    the foreground's way.
    """

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        algorithm: ScrubAlgorithm,
        threshold: float = 0.1,
        request_bytes: int = 64 * 1024,
        remediation: Optional[RemediationPolicy] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative: {threshold}")
        if request_bytes % SECTOR_SIZE:
            raise ValueError(
                f"request_bytes must be a multiple of {SECTOR_SIZE}: {request_bytes}"
            )
        self.sim = sim
        self.device = device
        self.algorithm = algorithm
        self.threshold = threshold
        self.request_sectors = request_bytes // SECTOR_SIZE
        self.source = "scrubber"

        self.remediation = remediation

        self.requests_issued = 0
        self.bytes_scrubbed = 0
        self.passes_completed = 0
        self.collisions = 0
        #: Scrub VERIFY requests the drive failed (detections, not sectors).
        self.errors_seen = 0
        #: Lifecycle counters (splits, remaps, failures).
        self.remediation_stats = RemediationStats()

        self._fg_outstanding = 0
        self._last_fg_completion = 0.0
        self._activity = sim.event()
        self._process: Optional[Process] = None
        self._draining = False
        self._telemetry = sim.telemetry

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> Process:
        if self._process is not None and self._process.is_alive:
            raise RuntimeError("waiting scrubber already running")
        self._draining = False
        self.device.observers.append(self._observe)
        self.algorithm.reset(self.device.drive.total_sectors, self.request_sectors)
        if self._telemetry is not None:
            self._telemetry.scrub_pass_started(self.sim.now, self.source, 0)
        self._process = self.sim.process(self._run())
        return self._process

    def stop(self) -> None:
        if self._process is None or not self._process.is_alive:
            return
        self._process.interrupt("stop")
        try:
            self.device.observers.remove(self._observe)
        except ValueError:
            pass

    def request_stop(self) -> None:
        """Graceful stop: finish the in-flight verify (and any error
        remediation it triggered), then exit — nothing is interrupted
        mid-lifecycle, so every detected error still ends remapped."""
        self._draining = True
        if not self._activity.triggered:
            self._activity.succeed()

    def throughput(self, duration: float) -> float:
        """Scrubbed bytes/second over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        return self.bytes_scrubbed / duration

    # -- observation ---------------------------------------------------------------
    def _observe(self, kind: str, request: IORequest, now: float) -> None:
        if request.source == self.source:
            return
        if kind == "submit":
            self._fg_outstanding += 1
        elif kind == "complete":
            self._fg_outstanding -= 1
            if self._fg_outstanding == 0:
                self._last_fg_completion = now
        if not self._activity.triggered:
            self._activity.succeed()

    def _fresh_activity(self):
        if self._activity.triggered:
            self._activity = self.sim.event()
        return self._activity

    # -- control loop ---------------------------------------------------------------
    def _run(self):
        sim = self.sim
        try:
            while True:
                if self._draining:
                    break
                if self._fg_outstanding > 0:
                    yield self._fresh_activity()
                    continue
                fire_at = max(self._last_fg_completion, 0.0) + self.threshold
                if sim.now < fire_at:
                    yield AnyOf(
                        sim,
                        [sim.timeout(fire_at - sim.now), self._fresh_activity()],
                    )
                    continue  # re-evaluate: either gate passed or fg arrived
                # Disk has been idle for the full threshold: fire until a
                # foreground request shows up.
                while self._fg_outstanding == 0:
                    if self._draining:
                        break
                    lbn, sectors = self._next_extent()
                    request = yield self._submit_verify(lbn, sectors)
                    if self._telemetry is not None:
                        self._report_progress()
                    if request.breakdown.status is CommandStatus.MEDIUM_ERROR:
                        self.errors_seen += 1
                        if self._telemetry is not None:
                            self._telemetry.fault_event(
                                sim.now,
                                "scrub_detection",
                                request.breakdown.error_lbn,
                                source=self.source,
                            )
                        if self.remediation is not None:
                            yield from remediate_extent(
                                sim,
                                self.device,
                                lbn,
                                sectors,
                                self.remediation,
                                self._submit_verify,
                                self.remediation_stats,
                            )
                    if self._fg_outstanding > 0:
                        self.collisions += 1
        except Interrupt:
            return
        finally:
            try:
                self.device.observers.remove(self._observe)
            except ValueError:
                pass

    @property
    def sectors_remapped(self) -> int:
        """Bad sectors this scrubber localised, remapped and re-verified."""
        return self.remediation_stats.sectors_remapped

    def _report_progress(self) -> None:
        pass_bytes = self.device.drive.total_sectors * SECTOR_SIZE
        within = self.bytes_scrubbed - self.passes_completed * pass_bytes
        self._telemetry.scrub_progress(
            self.sim.now,
            self.source,
            min(1.0, within / pass_bytes) if pass_bytes else 1.0,
        )

    def _next_extent(self):
        extent = self.algorithm.next_extent()
        if extent is None:
            self.passes_completed += 1
            if self._telemetry is not None:
                self._telemetry.scrub_pass_completed(
                    self.sim.now,
                    self.source,
                    self.passes_completed - 1,
                    self.bytes_scrubbed,
                )
            self.algorithm.reset(
                self.device.drive.total_sectors, self.request_sectors
            )
            if self._telemetry is not None:
                self._telemetry.scrub_pass_started(
                    self.sim.now, self.source, self.passes_completed
                )
            extent = self.algorithm.next_extent()
            if extent is None:
                raise RuntimeError("scrub algorithm yielded an empty pass")
        return extent

    def _submit_verify(self, lbn, sectors):
        request = IORequest(
            DiskCommand.verify(lbn, sectors),
            priority=PriorityClass.BE,
            source=self.source,
        )
        completion = self.device.submit(request)
        self.requests_issued += 1
        self.bytes_scrubbed += sectors * SECTOR_SIZE
        return completion
