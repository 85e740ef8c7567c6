"""I/O scheduler substrate.

Models the Linux 2.6.35 block layer pieces the paper depends on:

* :class:`~repro.sched.request.IORequest` — a block request with a
  priority class and an optional *soft barrier* flag.  User-level
  scrubbers issue ``VERIFY`` via ``ioctl``, which the kernel flags as a
  soft barrier: it cannot be sorted or merged and pins queue order
  (Section III-C).  The kernel scrubber instead disguises its verifies
  as reads, so they participate in normal scheduling.
* :class:`~repro.sched.cfq.CFQScheduler` — a CFQ-like scheduler with
  RT/BE/Idle classes, Idle-class dispatch gated on the disk having been
  free of foreground traffic for ``idle_gate`` seconds (Section III-B),
  and BE slice behaviour that reproduces the foreground starvation the
  paper observes for same-priority back-to-back scrubbing.
* :class:`~repro.sched.noop.NoopScheduler` and
  :class:`~repro.sched.deadline.DeadlineScheduler` — baselines.
* :class:`~repro.sched.device.BlockDevice` — binds a simulation, a
  drive and a scheduler; collects a complete request log.
"""

from repro import _lazy

_EXPORTS = {
    "BlockDevice": ".device",
    "CFQScheduler": ".cfq",
    "DeadlineScheduler": ".deadline",
    "ElevatorQueue": ".elevator",
    "IORequest": ".request",
    "NoopScheduler": ".noop",
    "PriorityClass": ".request",
    "RequestLog": ".device",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
