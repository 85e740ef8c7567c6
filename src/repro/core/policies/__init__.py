"""Scrub-scheduling policies (paper Section V-B).

Trace-driven policies decide, for every idle interval, whether and
when to start firing scrub requests; they are evaluated on idle
interval samples by :mod:`repro.analysis.collision` (Fig. 14):

* :class:`~repro.core.policies.waiting.WaitingPolicy` — fire after the
  disk has been idle for ``threshold`` seconds (the winner);
* :class:`~repro.core.policies.waiting.LosslessWaitingPolicy` — the
  hypothetical variant that also gets the waited-out time;
* :class:`~repro.core.policies.ar.ARPolicy` — fire from the start of
  an interval the AR(p) model predicts to be longer than ``c``;
* :class:`~repro.core.policies.combined.ARWaitingPolicy` — both;
* :class:`~repro.core.policies.oracle.OraclePolicy` — clairvoyantly
  use exactly the longest intervals (the upper bound).

:class:`~repro.core.policies.device.WaitingScrubber` is the full-stack
implementation of the Waiting policy: the framework
:class:`~repro.core.scrubber.Scrubber` paced by idleness instead of
delays — it watches a :class:`~repro.sched.device.BlockDevice` and
self-schedules.
"""

from repro import _lazy

_EXPORTS = {
    "ARPolicy": ".ar",
    "ARWaitingPolicy": ".combined",
    "IdlePolicy": ".base",
    "LosslessWaitingPolicy": ".waiting",
    "OraclePolicy": ".oracle",
    "WaitingPolicy": ".waiting",
    "WaitingScrubber": ".device",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
