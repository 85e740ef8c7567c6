"""Telemetry overhead microbenchmark -> ``BENCH_PR3.json``.

Reruns the kernel microbenchmark workloads (``perf_kernel.py``: the
1M-event timeout/process churn) on the current kernel in two telemetry
configurations:

* **baseline** — ``Simulation()``: no sink, recording off, exactly as
  ``perf_kernel.py`` runs it.  ``None`` is the only disabled sink, so
  this row *is* the disabled case;
* **recorder** — ``Simulation(telemetry=Recorder())``: recording on.
  The engine calls the sink once per ``run()`` and never per event;
  reported as an overhead over baseline and as events/sec so the
  *cost of observing* is a known, bounded trade.

Timings use ``time.process_time`` (CPU time) with min-of-N interleaved
repetitions, like ``perf_kernel.py``.

Usage::

    PYTHONPATH=src python benchmarks/perf_telemetry.py [--scale 0.1]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_kernel import PHASES, WORKLOADS  # noqa: E402

from repro import __version__  # noqa: E402
from repro import sim as kernel  # noqa: E402
from repro.obs.sink import Recorder  # noqa: E402


class _KernelShim:
    """Quacks like the ``repro.sim`` module for the perf workloads.

    The workloads only call ``kernel.Simulation()``; this shim threads a
    fresh telemetry sink into every such construction.
    """

    def __init__(self, sink_factory):
        self._sink_factory = sink_factory

    def Simulation(self):  # noqa: N802 - mimics the module attribute
        return kernel.Simulation(telemetry=self._sink_factory())


CONFIGS = {
    "baseline": kernel,  # Simulation() exactly as PR 1 benchmarks it
    "recorder": _KernelShim(lambda: Recorder(wall_time=False)),
}


def _time_once(workload, module, events: int) -> float:
    start = time.process_time()
    workload(module, events)
    return time.process_time() - start


def run_telemetry_benchmark(scale: float = 1.0, reps: int = 3) -> dict:
    """Measure every phase under both configs; returns the record.

    Repetitions interleave the configs (baseline, recorder, ...)
    and each keeps its minimum, cancelling slow drift on a loaded
    machine.
    """
    phases = {}
    totals = {name: 0.0 for name in CONFIGS}
    total_events = 0
    for phase_name, budget in PHASES.items():
        events = max(1000, int(budget * scale))
        workload = WORKLOADS[phase_name]
        for module in CONFIGS.values():  # warm allocator / code objects
            _time_once(workload, module, 1000)
        best = {name: float("inf") for name in CONFIGS}
        for _ in range(reps):
            for name, module in CONFIGS.items():
                best[name] = min(best[name], _time_once(workload, module, events))
        phases[phase_name] = {
            "events": events,
            **{f"{name}_s": round(best[name], 4) for name in CONFIGS},
        }
        for name in CONFIGS:
            totals[name] += best[name]
        total_events += events

    recorder_overhead = (
        (totals["recorder"] - totals["baseline"]) / totals["baseline"]
    )
    return {
        "workload": "perf_kernel churn phases under telemetry configs",
        "timer": "time.process_time (CPU), min of interleaved reps",
        "reps": reps,
        "events": total_events,
        "phases": phases,
        "total": {
            **{f"{name}_s": round(totals[name], 4) for name in CONFIGS},
            "recorder_overhead": round(recorder_overhead, 4),
            "recorder_events_per_s": round(total_events / totals["recorder"]),
        },
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="event-budget multiplier (use e.g. 0.1 for a quick check)",
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR3.json"),
    )
    args = parser.parse_args(argv)

    record = run_telemetry_benchmark(scale=args.scale, reps=args.reps)
    print(
        f"{'phase':<22}{'events':>9}{'baseline':>10}{'recorder':>10}"
    )
    for name, row in record["phases"].items():
        print(
            f"{name:<22}{row['events']:>9,}{row['baseline_s']:>9.3f}s"
            f"{row['recorder_s']:>9.3f}s"
        )
    total = record["total"]
    print(
        f"{'TOTAL':<22}{record['events']:>9,}{total['baseline_s']:>9.3f}s"
        f"{total['recorder_s']:>9.3f}s"
    )
    print(
        f"recorder overhead: {total['recorder_overhead']:+.1%} "
        f"({total['recorder_events_per_s']:,} events/s)"
    )

    payload = {
        "version": __version__,
        "python": sys.version.split()[0],
        "telemetry": record,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
