"""Foreground workload generators.

Closed-loop synthetic workloads (Section IV-B of the paper) and an
open-loop trace replayer (Section IV-C).  All workloads submit
:class:`~repro.sched.request.IORequest`\\ s to a
:class:`~repro.sched.device.BlockDevice` from inside simulation
processes.
"""

from repro import _lazy

_EXPORTS = {
    "RandomReader": ".synthetic",
    "SequentialReader": ".synthetic",
    "TraceReplayer": ".replay",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
