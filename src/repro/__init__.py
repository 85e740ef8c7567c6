"""repro — a reproduction of "Practical Scrubbing: Getting to the bad
sector at the right time" (Amvrosiadis, Oprea, Schroeder; DSN 2012).

The library is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.disk` — mechanical drive model (geometry, seek/rotation,
  cache, SCSI/ATA ``VERIFY`` semantics, paper drive presets);
* :mod:`repro.sched` — block layer: requests, CFQ/NOOP/Deadline
  schedulers, soft barriers, the :class:`~repro.sched.device.BlockDevice`;
* :mod:`repro.workloads` — synthetic foreground workloads and an
  open-loop trace replayer;
* :mod:`repro.traces` — trace container/parsers, synthetic trace
  generators calibrated to the paper's trace statistics, idle-interval
  extraction;
* :mod:`repro.stats` — ANOVA periodicity, autocorrelation, AR(p)
  fitting, hazard-rate and tail estimators;
* :mod:`repro.core` — the paper's contribution: scrubbing framework,
  sequential/staggered orders, Waiting/AR/Oracle policies, adaptive
  request sizing, the (size, threshold) optimizer, and an MLET model;
* :mod:`repro.analysis` — the experiment harnesses behind every figure
  and table;
* :mod:`repro.obs` — blktrace-style tracing, a metrics registry,
  campaign spans and monitoring, and Chrome-trace/JSONL/Prometheus
  exports across the whole stack.

Quickstart::

    from repro import quickstart_scrub_throughput
    print(quickstart_scrub_throughput())  # sequential vs staggered, MB/s
"""

from repro.core import Scrubber, SequentialScrub, StaggeredScrub
from repro.core.optimizer import OptimalParameters, ScrubParameterOptimizer
from repro.core.policies import (
    ARPolicy,
    ARWaitingPolicy,
    LosslessWaitingPolicy,
    OraclePolicy,
    WaitingPolicy,
    WaitingScrubber,
)
from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.faults import (
    BernoulliFaultModel,
    ClusteredBurstFaultModel,
    FaultPlan,
    MediaFaults,
    RemediationPolicy,
)
from repro.sched import BlockDevice, CFQScheduler, NoopScheduler
from repro.sim import Simulation
from repro.obs.sink import Recorder, TelemetrySink
from repro.traces import Trace, generate_trace

#: Bump when any result can change (the ``ResultCache`` key hashes it);
#: an exact change of implementation does not (PRs 11-20 moved no result).
__version__ = "1.10.0"

__all__ = [
    "ARPolicy",
    "ARWaitingPolicy",
    "BernoulliFaultModel",
    "BlockDevice",
    "CFQScheduler",
    "ClusteredBurstFaultModel",
    "Drive",
    "FaultPlan",
    "LosslessWaitingPolicy",
    "MediaFaults",
    "NoopScheduler",
    "OptimalParameters",
    "OraclePolicy",
    "Recorder",
    "RemediationPolicy",
    "ScrubParameterOptimizer",
    "Scrubber",
    "SequentialScrub",
    "Simulation",
    "StaggeredScrub",
    "TelemetrySink",
    "Trace",
    "WaitingPolicy",
    "WaitingScrubber",
    "generate_trace",
    "hitachi_ultrastar_15k450",
    "quickstart_scrub_throughput",
]


def quickstart_scrub_throughput() -> dict:
    """Five-second taste of the library: scrub throughput by algorithm.

    Returns a dict of MB/s for a sequential and a 128-region staggered
    scrubber running alone on the paper's main drive.
    """
    from repro.analysis.throughput import standalone_scrub_throughput

    spec = hitachi_ultrastar_15k450()
    return {
        "sequential": standalone_scrub_throughput(
            spec, SequentialScrub(), horizon=5.0
        ) / 1e6,
        "staggered-128": standalone_scrub_throughput(
            spec, StaggeredScrub(128), horizon=5.0
        ) / 1e6,
    }
