"""Kernel microbenchmark: seed kernel vs the current fast-path kernel.

Runs a 1M-event workload through both the frozen seed kernel
(``legacy_kernel.py``) and the current ``repro.sim`` kernel and reports
per-phase and total speedups.  Three phases cover the kernel's real
usage profiles:

* ``deep_schedule_drain`` — a process pre-schedules a large batch of
  timeouts, then the engine drains them.  This is the trace-replay
  shape (:class:`repro.workloads.replay.TraceReplayer` schedules
  arrivals up front) and the phase where pausing the cyclic GC pays
  most: the collector otherwise rescans the live pending-event heap
  on every collection.
* ``fire_forget_churn`` — a process creates fire-and-forget timeouts
  (nobody ever reads their callbacks) around a yielded timeout, keeping
  the heap shallow.  Exercises lazy callback-list allocation and the
  inlined ``Timeout.__init__``.
* ``process_churn`` — batches of short-lived processes, each yielding
  a couple of timeouts.  Exercises the resume fast path and the
  single-waiter callback representation.

Timings use ``time.process_time`` (CPU time) with min-of-N interleaved
repetitions, so results are stable on shared/noisy machines.

Run directly (``PYTHONPATH=src python benchmarks/perf_kernel.py``).
``PHASES`` and ``WORKLOADS`` are also what the telemetry and
invariant-checker overhead gates (``perf_telemetry.py``,
``perf_verify.py``) time.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import legacy_kernel  # noqa: E402

from repro import sim as current_kernel  # noqa: E402

#: Phase event budgets; they sum to the 1M-event headline workload.
PHASES = {
    "deep_schedule_drain": 600_000,
    "fire_forget_churn": 250_000,
    "process_churn": 150_000,
}


# -- workloads (kernel-agnostic: take the kernel module) ------------------


#: Deep-phase wave size: one trace-replay window's worth of
#: pre-scheduled arrivals (a multi-hour block trace holds a few
#: hundred thousand requests).
DEEP_WAVE = 300_000


def deep_schedule_drain(kernel, events: int) -> float:
    """Pre-schedule a replay window of timeouts, drain it, repeat."""
    sim = kernel.Simulation()
    timeout = sim.timeout
    wave = min(events, DEEP_WAVE)
    waves = max(1, events // wave)

    def producer(sim):
        for _ in range(waves):
            for i in range(wave - 1):
                timeout((i % 97) + 1.0)
            # Yield past the wave so the heap drains fully before the
            # next window is scheduled.
            yield sim.timeout(100.0)

    sim.process(producer(sim))
    sim.run()
    return sim.now


def fire_forget_churn(kernel, events: int) -> float:
    """Shallow-heap churn: three fire-and-forget timeouts per yield."""
    sim = kernel.Simulation()
    timeout = sim.timeout
    rounds = events // 4

    def churner(sim):
        for _ in range(rounds):
            timeout(0.5)
            timeout(1.0)
            timeout(1.5)
            yield timeout(2.0)

    sim.process(churner(sim))
    sim.run()
    return sim.now


def process_churn(kernel, events: int) -> float:
    """Batches of short-lived processes, two yields each."""
    sim = kernel.Simulation()
    # Each worker costs ~4 events (init + two timeouts + completion).
    workers = events // 4
    batch = 200

    def worker(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    def spawner(sim):
        spawned = 0
        while spawned < workers:
            for _ in range(min(batch, workers - spawned)):
                sim.process(worker(sim))
            spawned += batch
            yield sim.timeout(3.0)

    sim.process(spawner(sim))
    sim.run()
    return sim.now


WORKLOADS = {
    "deep_schedule_drain": deep_schedule_drain,
    "fire_forget_churn": fire_forget_churn,
    "process_churn": process_churn,
}


# -- measurement ----------------------------------------------------------


def _time_once(workload, kernel, events: int) -> float:
    start = time.process_time()
    workload(kernel, events)
    return time.process_time() - start


def run_kernel_benchmark(scale: float = 1.0, reps: int = 3) -> dict:
    """Measure every phase on both kernels; returns the result record.

    Repetitions interleave the two kernels (legacy, new, legacy, new,
    ...) and each side keeps its minimum, cancelling slow drift on a
    loaded machine.
    """
    phases = {}
    total_legacy = 0.0
    total_new = 0.0
    total_events = 0
    for name, budget in PHASES.items():
        events = max(1000, int(budget * scale))
        workload = WORKLOADS[name]
        # Warm both kernels once (allocator, code objects).
        _time_once(workload, legacy_kernel, 1000)
        _time_once(workload, current_kernel, 1000)
        legacy_best = float("inf")
        new_best = float("inf")
        for _ in range(reps):
            legacy_best = min(legacy_best, _time_once(workload, legacy_kernel, events))
            new_best = min(new_best, _time_once(workload, current_kernel, events))
        phases[name] = {
            "events": events,
            "legacy_s": round(legacy_best, 4),
            "new_s": round(new_best, 4),
            "speedup": round(legacy_best / new_best, 3),
        }
        total_legacy += legacy_best
        total_new += new_best
        total_events += events
    return {
        "workload": "timeout/process churn microbenchmark",
        "timer": "time.process_time (CPU), min of interleaved reps",
        "reps": reps,
        "events": total_events,
        "phases": phases,
        "total": {
            "legacy_s": round(total_legacy, 4),
            "new_s": round(total_new, 4),
            "speedup": round(total_legacy / total_new, 3),
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
    args = parser.parse_args(argv)

    record = run_kernel_benchmark(scale=args.scale, reps=args.reps)
    print(f"{'phase':<22}{'events':>9}{'legacy':>9}{'new':>9}{'speedup':>9}")
    for name, row in record["phases"].items():
        print(
            f"{name:<22}{row['events']:>9,}{row['legacy_s']:>8.3f}s"
            f"{row['new_s']:>8.3f}s{row['speedup']:>8.2f}x"
        )
    total = record["total"]
    print(
        f"{'TOTAL':<22}{record['events']:>9,}{total['legacy_s']:>8.3f}s"
        f"{total['new_s']:>8.3f}s{total['speedup']:>8.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
