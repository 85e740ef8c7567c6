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

from repro.core.policies.ar import ARPolicy
from repro.core.policies.base import IdlePolicy
from repro.core.policies.combined import ARWaitingPolicy
from repro.core.policies.device import WaitingScrubber
from repro.core.policies.oracle import OraclePolicy
from repro.core.policies.waiting import LosslessWaitingPolicy, WaitingPolicy

__all__ = [
    "ARPolicy",
    "ARWaitingPolicy",
    "IdlePolicy",
    "LosslessWaitingPolicy",
    "OraclePolicy",
    "WaitingPolicy",
    "WaitingScrubber",
]
