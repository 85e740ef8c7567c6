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

import sys
from importlib import import_module

#: Bump when any result can change (the ``ResultCache`` key hashes it);
#: an exact change of implementation does not (PRs 11-20 moved no result).
__version__ = "1.10.0"


def _lazy(package: str, exports: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a re-exporting package.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package``.  Nothing is imported until a name is first
    read; then its module is, and the name is cached in the package's
    globals, so a second read never reaches ``__getattr__``.  A name not
    in ``exports`` is an ``AttributeError`` (DESIGN section 17).
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "ARPolicy": ".core.policies.ar",
    "ARWaitingPolicy": ".core.policies.combined",
    "BernoulliFaultModel": ".faults.plan",
    "BlockDevice": ".sched.device",
    "CFQScheduler": ".sched.cfq",
    "ClusteredBurstFaultModel": ".faults.plan",
    "Drive": ".disk.drive",
    "FaultPlan": ".faults.plan",
    "LosslessWaitingPolicy": ".core.policies.waiting",
    "MediaFaults": ".faults.state",
    "NoopScheduler": ".sched.noop",
    "OptimalParameters": ".core.optimizer",
    "OraclePolicy": ".core.policies.oracle",
    "Recorder": ".obs.sink",
    "RemediationPolicy": ".faults.remediation",
    "ScrubParameterOptimizer": ".core.optimizer",
    "Scrubber": ".core.scrubber",
    "SequentialScrub": ".core.sequential",
    "Simulation": ".sim.engine",
    "StaggeredScrub": ".core.staggered",
    "TelemetrySink": ".obs.sink",
    "Trace": ".traces.record",
    "WaitingPolicy": ".core.policies.waiting",
    "WaitingScrubber": ".core.policies.device",
    "generate_trace": ".traces.catalog",
    "hitachi_ultrastar_15k450": ".disk.models",
}
__all__ = [*_EXPORTS, "quickstart_scrub_throughput"]
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)


def quickstart_scrub_throughput() -> dict:
    """Five-second taste of the library: scrub throughput by algorithm.

    Returns a dict of MB/s for a sequential and a 128-region staggered
    scrubber running alone on the paper's main drive.
    """
    from repro.analysis.throughput import standalone_scrub_throughput
    from repro.core.sequential import SequentialScrub
    from repro.core.staggered import StaggeredScrub
    from repro.disk.models import hitachi_ultrastar_15k450

    spec = hitachi_ultrastar_15k450()
    return {
        "sequential": standalone_scrub_throughput(
            spec, SequentialScrub(), horizon=5.0
        ) / 1e6,
        "staggered-128": standalone_scrub_throughput(
            spec, StaggeredScrub(128), horizon=5.0
        ) / 1e6,
    }
