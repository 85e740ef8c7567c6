"""The scenario layer: one assembler for every full-stack experiment.

Every full-stack experiment in the paper is the same machine — Fig. 2's
scrubber thread per block device under an I/O scheduler, next to a
foreground load, run to a horizon.  :class:`ScrubStack` builds it; the
experiments (impact, replay CDFs, detection, the ``repro.verify``
oracle, ``repro trace``) choose a foreground, a fault plan and what to
read off the logs afterwards.  Five decisions live here and nowhere
else (DESIGN §18):

* name → scrubber: every name builds a :class:`Scrubber` (DESIGN §6.4);
  ``"sequential"`` / ``"staggered"`` pace it by delays and walk that
  order, ``"waiting"`` is its idle-paced :class:`WaitingScrubber`
  subclass walking sequentially;
* the scheduler under it: Waiting schedules itself, so its device is
  FIFO; everything else runs under CFQ, whose idle gate is then part of
  the policy;
* start order: foreground first, scrubber second — processes started at
  the same instant run in sequence-number order, so the order decides
  who reaches the idle disk first;
* the drain: at the horizon a draining run lets the in-flight verify and
  any remediation it triggered finish, so no detected error is abandoned
  mid-lifecycle by the cut-off;
* the release: a stack runs once, and ``run()`` ends by closing the
  simulation over the processes the stack started, so that dropping the
  stack frees the finished run by reference counting.

Idle gate, drive cache, Waiting threshold and spare pool have no default
here: the experiments disagree on them, and a default would silently
move one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policies.device import WaitingScrubber
from repro.core.scrubber import ScrubAlgorithm, Scrubber
from repro.core.sequential import SequentialScrub
from repro.core.staggered import StaggeredScrub
from repro.disk.drive import Drive
from repro.disk.models import DriveSpec
from repro.faults import FaultPlan, MediaFaults, RemediationPolicy
from repro.sched.cfq import CFQScheduler
from repro.sched.device import BlockDevice
from repro.sched.noop import NoopScheduler
from repro.sched.request import PriorityClass
from repro.sim import RandomStreams, Simulation
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import RandomReader, SequentialReader

#: Scrub policies :class:`ScrubberSetup` understands.
ALGORITHMS = ("sequential", "staggered", "waiting")


@dataclass(frozen=True)
class ScrubberSetup:
    """Which scrubber an experiment runs, and how it is configured.

    ``user_level=True`` selects the paper's user-space scrubber:
    requests become soft barriers (priority classes stop mattering)
    and delays are timed issue-to-issue; the kernel scrubber times its
    delays completion-to-issue.

    ``algorithm="waiting"`` needs ``threshold`` (idle seconds before
    firing) and ignores ``priority``, ``user_level`` and ``delay``: on
    its FIFO device there is no class to honour and it paces itself.
    """

    algorithm: str = "sequential"  # one of ALGORITHMS
    regions: int = 128
    request_bytes: int = 64 * 1024
    priority: PriorityClass = PriorityClass.IDLE
    user_level: bool = False
    delay: float = 0.0
    threshold: Optional[float] = None

    def build_algorithm(self) -> ScrubAlgorithm:
        if self.algorithm in ("sequential", "waiting"):
            return SequentialScrub()
        if self.algorithm == "staggered":
            return StaggeredScrub(regions=self.regions)
        raise ValueError(
            f"unknown scrub algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
        )

    def build(
        self,
        sim: Simulation,
        device: BlockDevice,
        remediation: Optional[RemediationPolicy] = None,
    ) -> Scrubber:
        """The configured scrubber bound to ``device`` (not started)."""
        algorithm = self.build_algorithm()
        if self.algorithm == "waiting":
            if self.threshold is None:
                raise ValueError("the Waiting scrubber needs a threshold")
            return WaitingScrubber(
                sim,
                device,
                algorithm,
                threshold=self.threshold,
                request_bytes=self.request_bytes,
                remediation=remediation,
            )
        return Scrubber(
            sim,
            device,
            algorithm,
            request_bytes=self.request_bytes,
            priority=self.priority,
            soft_barrier=self.user_level,
            delay=self.delay,
            delay_mode="interval" if self.user_level else "gap",
            remediation=remediation,
        )


class ScrubStack:
    """Engine + drive (+ media faults) + scheduler + device (+ scrubber).

    ``setup=None`` builds the stack without a scrubber (the "None" bars
    and every no-scrub baseline).  ``fault_plan`` installs latent sector
    errors with a ``spare_sectors`` reallocation pool; ``remediation``
    is handed to the scrubber.  After :meth:`run`, read results off
    ``device.log``, ``scrubber``, ``faults.log``, ``drive.cache``,
    ``foreground`` and the clock (``sim.now``).
    """

    def __init__(
        self,
        spec: DriveSpec,
        setup: Optional[ScrubberSetup] = None,
        *,
        idle_gate: float,
        cache_enabled: bool,
        telemetry=None,
        fault_plan: Optional[FaultPlan] = None,
        spare_sectors: Optional[int] = None,
        remediation: Optional[RemediationPolicy] = None,
        max_log_records: Optional[int] = None,
    ) -> None:
        self.sim = Simulation(telemetry=telemetry)
        self.drive = Drive(spec, cache_enabled=cache_enabled)
        self.faults: Optional[MediaFaults] = None
        if fault_plan is not None:
            if spare_sectors is None:
                raise ValueError("a fault plan needs a spare_sectors pool size")
            self.faults = MediaFaults(fault_plan, spare_sectors=spare_sectors)
            self.drive.install_faults(self.faults)
        waiting = setup is not None and setup.algorithm == "waiting"
        self.device = BlockDevice(
            self.sim,
            self.drive,
            NoopScheduler() if waiting else CFQScheduler(idle_gate=idle_gate),
            max_log_records=max_log_records,
        )
        self.scrubber = (
            setup.build(self.sim, self.device, remediation)
            if setup is not None
            else None
        )
        #: The foreground workload (:class:`TraceReplayer` or reader),
        #: ``None`` until :meth:`replay` or :meth:`reader` starts one.
        self.foreground = None
        #: Handles of the processes this stack started, for the engine
        #: teardown at the end of :meth:`run`; ``None`` once released.
        self._started: Optional[list] = [self.device.dispatcher]

    def _live(self) -> list:
        """The handles of a stack that has not run yet."""
        if self._started is None:
            raise RuntimeError("this stack has run and released its simulation")
        return self._started

    def _start_foreground(self, workload) -> None:
        started = self._live()
        if self.foreground is not None:
            raise RuntimeError("this stack already has a foreground")
        self.foreground = workload
        started.append(workload.start())

    def replay(self, trace, time_scale: float = 1.0) -> None:
        """Start an open-loop replay of ``trace`` as the foreground
        (anything :class:`TraceReplayer` accepts; LBNs wrap onto the drive)."""
        self._start_foreground(
            TraceReplayer(self.sim, self.device, trace, time_scale=time_scale)
        )

    def reader(self, pattern: str, seed: int, think_mean: float) -> None:
        """Start a closed-loop synthetic reader as the foreground:
        ``"sequential"`` (8 MB chunks of 64 KB reads) or ``"random"``
        (random 64 KB reads), exponential think times."""
        readers = {"sequential": SequentialReader, "random": RandomReader}
        if pattern not in readers:
            raise ValueError(f"unknown workload: {pattern!r}")
        self._start_foreground(
            readers[pattern](
                self.sim,
                self.device,
                RandomStreams(seed=seed).get("foreground"),
                think_mean=think_mean,
            )
        )

    def run(self, horizon: float, drain: bool = False) -> None:
        """Start the scrubber, run to ``horizon``, optionally drain,
        close the fault log at ``horizon`` and release the simulation.

        A stack runs once.  What is still pending at the horizon (the
        event heap, the dispatcher, the scrubber and the foreground
        waiting mid-request) is torn down by :meth:`Simulation.close`,
        so that dropping the stack frees all of it by reference
        counting; the logs and counters named in the class docstring
        stay readable, and a second ``run()`` (or a late ``replay()`` /
        ``reader()``) raises ``RuntimeError``.
        """
        started = self._live()
        process = self.scrubber.start() if self.scrubber is not None else None
        if process is not None:
            started.append(process)
        self.sim.run(until=horizon)
        if drain and process is not None and process.is_alive:
            self.scrubber.request_stop()
            self.sim.run(until=process)
        if self.faults is not None:
            self.faults.finalize(horizon)
        self._started = None
        self.sim.close(started)
