"""Invariant-checker overhead microbenchmark -> ``BENCH_PR5.json``.

Reruns the PR 1 kernel microbenchmark workloads (``perf_kernel.py``:
the 1M-event timeout/process churn) with and without the
:class:`~repro.verify.invariants.InvariantSink` attached:

* **baseline** — ``Simulation()`` with no telemetry: the engine runs
  the untouched fast loop, so an unattached checker costs exactly
  nothing (structurally zero: ``None`` is the only disabled sink);
* **invariants** — ``Simulation(telemetry=InvariantSink())``: the
  engine selects the instrumented twin loop and every hook the churn
  emits flows through the conservation-law checks.  Budgeted at ≤ 10%
  of baseline (the ISSUE 5 acceptance criterion), enforced here.

Timings use ``time.process_time`` (CPU time) with min-of-N interleaved
repetitions, like ``perf_kernel.py`` and ``perf_telemetry.py``.

Usage::

    PYTHONPATH=src python benchmarks/perf_verify.py [--scale 0.1]
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
from repro.verify import InvariantSink  # noqa: E402

#: InvariantSink overhead budget vs the no-telemetry baseline (ISSUE 5
#: acceptance criterion: <= 10% on the 1M-event churn when enabled).
INVARIANT_OVERHEAD_BUDGET = 0.10


class _KernelShim:
    """Quacks like the ``repro.sim`` module for the perf workloads.

    The workloads only call ``kernel.Simulation()``; this shim threads a
    fresh invariant sink into every such construction.
    """

    def __init__(self, sink_factory):
        self._sink_factory = sink_factory

    def Simulation(self):  # noqa: N802 - mimics the module attribute
        return kernel.Simulation(telemetry=self._sink_factory())


CONFIGS = {
    "baseline": kernel,  # Simulation() exactly as PR 1 benchmarks it
    "invariants": _KernelShim(lambda: InvariantSink()),
}


def _time_once(workload, module, events: int) -> float:
    start = time.process_time()
    workload(module, events)
    return time.process_time() - start


def run_verify_benchmark(scale: float = 1.0, reps: int = 3) -> dict:
    """Measure every phase under both configs; returns the record.

    Repetitions interleave the configs (baseline, invariants, ...) and
    each keeps its minimum, cancelling slow drift on a loaded machine.
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

    overhead = (totals["invariants"] - totals["baseline"]) / totals["baseline"]
    return {
        "workload": "perf_kernel churn phases under the invariant checker",
        "timer": "time.process_time (CPU), min of interleaved reps",
        "reps": reps,
        "events": total_events,
        "phases": phases,
        "total": {
            **{f"{name}_s": round(totals[name], 4) for name in CONFIGS},
            "invariant_overhead": round(overhead, 4),
            "invariant_overhead_budget": INVARIANT_OVERHEAD_BUDGET,
            "invariant_events_per_s": round(total_events / totals["invariants"]),
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
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR5.json"),
    )
    args = parser.parse_args(argv)

    record = run_verify_benchmark(scale=args.scale, reps=args.reps)
    print(f"{'phase':<22}{'events':>9}{'baseline':>10}{'invariants':>12}")
    for name, row in record["phases"].items():
        print(
            f"{name:<22}{row['events']:>9,}{row['baseline_s']:>9.3f}s"
            f"{row['invariants_s']:>11.3f}s"
        )
    total = record["total"]
    print(
        f"{'TOTAL':<22}{record['events']:>9,}{total['baseline_s']:>9.3f}s"
        f"{total['invariants_s']:>11.3f}s"
    )
    print(
        f"InvariantSink overhead: {total['invariant_overhead']:+.1%} "
        f"(budget {INVARIANT_OVERHEAD_BUDGET:.0%}; "
        f"{total['invariant_events_per_s']:,} events/s checked)"
    )

    payload = {
        "version": __version__,
        "python": sys.version.split()[0],
        "verify": record,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if total["invariant_overhead"] > INVARIANT_OVERHEAD_BUDGET:
        print(
            f"WARNING: InvariantSink overhead "
            f"{total['invariant_overhead']:.1%} exceeds the "
            f"{INVARIANT_OVERHEAD_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
