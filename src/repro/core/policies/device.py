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
the paper's replacement of CFQ's gating logic.  It is a
:class:`~repro.core.scrubber.Scrubber` that paces itself; everything
but the pacing is the base class's (DESIGN §6.4).
"""

from __future__ import annotations

from typing import Optional

from repro.core.scrubber import ScrubAlgorithm, Scrubber
from repro.disk.commands import CommandStatus
from repro.faults.remediation import RemediationPolicy
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import AnyOf, Interrupt, Process, Simulation


class WaitingScrubber(Scrubber):
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

    Its verifies are best-effort requests from source ``"scrubber"``
    with no delay and no pass limit: it paces itself, so no priority
    class is needed to keep it out of the foreground's way.
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
        super().__init__(
            sim,
            device,
            algorithm,
            request_bytes=request_bytes,
            priority=PriorityClass.BE,
            remediation=remediation,
        )
        self.threshold = threshold
        self.collisions = 0

        self._fg_outstanding = 0
        self._last_fg_completion = 0.0
        self._activity = sim.event()

    # -- lifecycle: the base's, plus the observer -----------------------------
    def start(self) -> Process:
        process = super().start()
        self.device.observers.append(self._observe)
        # The first pass begins at start: a pass spans firing bursts.
        self._begin_pass()
        return process

    def stop(self) -> None:
        super().stop()
        self._detach()

    def request_stop(self) -> None:
        self._draining = True  # the base's graceful stop, then a wake
        if not self._activity.triggered:
            self._activity.succeed()

    def _detach(self) -> None:
        try:
            self.device.observers.remove(self._observe)
        except ValueError:
            pass

    # -- observation ---------------------------------------------------------------
    def _observe(self, kind: str, request: IORequest, now: float) -> None:
        """Count the foreground requests outstanding, and wake the
        process only when the count leaves or reaches 0 (or is
        negative): woken while the disk stays busy, it would find
        ``_fg_outstanding > 0`` and sleep again (DESIGN §18)."""
        if request.source == self.source:
            return
        outstanding = self._fg_outstanding
        if kind == "submit":
            self._fg_outstanding = outstanding + 1
            if outstanding > 0:
                return
        elif kind == "complete":
            self._fg_outstanding = outstanding = outstanding - 1
            if outstanding > 0:
                return
            if outstanding == 0:
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
        sink = self._telemetry
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
                    request = yield self._verify(lbn, sectors)
                    if sink is not None:
                        self._report_progress()
                    if request.breakdown.status is CommandStatus.MEDIUM_ERROR:
                        yield from self._detected(request, lbn, sectors)
                    if self._fg_outstanding > 0:
                        self.collisions += 1
        except Interrupt:
            return
        finally:
            self._detach()

    def _next_extent(self):
        """The next extent to verify; a pass that ends inside a firing
        burst rolls over to the next one without leaving the burst."""
        extent = self.algorithm.next_extent()
        while extent is None:
            self._end_pass()
            self._begin_pass()
            extent = self.algorithm.next_extent()
        return extent
