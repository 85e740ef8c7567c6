"""In-worker progress probe: what a shard task tells its supervisor.

A :class:`~repro.parallel.supervise.SupervisedRunner` worker already
owns a pipe to its supervisor and a heartbeat thread beating on it.
This module is the *payload* side of those beats: a process-global
:data:`PROBE` that the task function advances as it works (one
``advance()`` per unit of work) and that the heartbeat thread samples
— so a supervisor learns not just "the worker is alive" but "the
worker is 1,180/2,000 groups in, using 41 MB".

Design constraints, in order:

* **Passive.**  Advancing the probe touches two integers; it never
  blocks, allocates, raises, or reads a clock.  A task's results are
  bit-identical whether anything ever samples the probe or not.
* **Lock-free.**  The heartbeat thread reads while the task thread
  writes.  Both sides tolerate torn reads (the CPython GIL makes the
  individual int stores atomic); a sample that is one unit stale is
  perfectly good telemetry.
* **Dependency-free.**  Importable from worker processes before the
  simulator is; imports nothing from :mod:`repro`.

Peak RSS comes from ``resource.getrusage`` when the platform provides
it (Linux reports kilobytes) and is ``None`` elsewhere — consumers
must treat it as best-effort.  ``ru_maxrss`` is a high-water mark over
the *process's* lifetime and a supervised worker serves many tasks, so
a beat reports the peak of the worker so far, not of the task it is
running; only the maximum over a whole campaign keeps its meaning.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["PROBE", "WorkerProbe", "peak_rss_kb"]


def peak_rss_kb() -> Optional[int]:
    """This process's lifetime peak resident set size in KiB, if knowable."""
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # pragma: no cover - non-POSIX platforms
        return None
    # Linux reports KiB; macOS reports bytes.  Normalise to KiB.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux container
        rss //= 1024
    return int(rss)


class WorkerProbe:
    """Work-done counter a task publishes and a heartbeat samples."""

    __slots__ = ("done", "total")

    def __init__(self) -> None:
        self.done = 0
        self.total = 0

    def reset(self, total: int = 0) -> None:
        """Start a new unit of supervised work with ``total`` steps."""
        self.done = 0
        self.total = int(total)

    def advance(self, amount: int = 1) -> None:
        """One (or ``amount``) steps of work finished."""
        self.done += amount

    def payload(self) -> dict:
        """Sample for a heartbeat: progress plus best-effort peak RSS.

        Always safe to call from another thread; the ``done``/``total``
        pair may be one step stale, never torn mid-int.
        """
        return {
            "done": self.done,
            "total": self.total,
            "rss_kb": peak_rss_kb(),
        }


#: The process-global probe.  ``fleet_shard_task`` (and any future
#: supervised task) advances it; the supervised-worker heartbeat
#: thread ships :meth:`WorkerProbe.payload` with every beat.
PROBE = WorkerProbe()
