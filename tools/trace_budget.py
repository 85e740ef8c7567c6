"""Trace budget: what synthesising a catalog trace costs beyond the trace.

``make trace-budget`` runs this.  For every catalog entry at the CLI's
default ``--duration`` (4 h, seed 0), then for MSRsrc11 at the
benchmark's 6 h and at one day (seed 7), a fresh interpreter calls
``generate_trace`` and reports

* requests kept and kept / drawn -- the burst estimate ignores the hour
  profile, so a trace that starts in quiet hours draws 5-8x what it
  keeps and one that starts in busy hours runs out (DESIGN section 19);
* wall seconds and max RSS of the process;
* RSS growth during the call over the bytes of the trace's four columns;
* whether the trace reached its duration (no run-dry ``RuntimeWarning``).

Exit status 1 when a row's RSS growth exceeds ``3 x trace bytes +
32 MB``: block-wise synthesis holds the columns, the untouched output
buffer and a few megabyte-sized blocks, where one pass over the whole
draw read 11x at 6 h.  The seconds are printed for the reader and never
judged here (this box runs the same work 0.8-1.5x from minute to
minute); a run-dry row is reported, not failed -- fixing the estimate
changes traces and is ROADMAP's to schedule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List, Tuple

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CLI_DEFAULT_DURATION = 4 * 3600.0
GROWTH_FACTOR = 3.0
GROWTH_SLACK_MB = 32.0

_PROBE = """
import json, resource, sys, time, warnings
import repro.traces.catalog as catalog

class CountingStream:
    '''The generator's rng; counts the arrivals drawn (one exponential each).'''
    def __init__(self, rng):
        self.rng, self.drawn = rng, 0
    def exponential(self, scale, size):
        self.drawn += size
        return self.rng.exponential(scale, size=size)
    def __getattr__(self, name):
        return getattr(self.rng, name)

streams = []
class CountingGenerator(catalog.SyntheticTraceGenerator):
    def __init__(self, profile, rng):
        streams.append(CountingStream(rng))
        super().__init__(profile, streams[-1])
catalog.SyntheticTraceGenerator = CountingGenerator

name, duration, seed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    trace = catalog.generate_trace(name, duration=duration, seed=seed)
seconds = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "kept": len(trace),
    "drawn": int(streams[0].drawn),
    "seconds": seconds,
    "rss_mb": after / 1024.0,
    "growth_mb": (after - before) / 1024.0,
    "trace_mb": sum(
        column.nbytes for column in
        (trace.times, trace.lbns, trace.sectors, trace.is_write)
    ) / 2.0**20,
    "reached": not any(w.category is RuntimeWarning for w in caught),
}))
"""


def rows() -> List[Tuple[str, float, int]]:
    """(catalog entry, duration, seed) for every judged call."""
    sys.path.insert(0, SRC)
    from repro.traces import CATALOG

    return [(name, CLI_DEFAULT_DURATION, 0) for name in sorted(CATALOG)] + [
        ("MSRsrc11", 6 * 3600.0, 7),
        ("MSRsrc11", 24 * 3600.0, 7),
    ]


def measure(name: str, duration: float, seed: int) -> dict:
    """One ``generate_trace`` call in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, name, str(duration), str(seed)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"probe exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def over_budget(report: dict) -> bool:
    allowed = GROWTH_FACTOR * report["trace_mb"] + GROWTH_SLACK_MB
    return report["growth_mb"] > allowed


def main() -> int:
    print(
        f"{'trace':<10} {'hours':>5} {'kept':>9} {'kept/drawn':>10} "
        f"{'seconds':>8} {'rss MB':>8} {'trace MB':>9} {'growth/trace':>12}  reached"
    )
    failed = False
    for name, duration, seed in rows():
        report = measure(name, duration, seed)
        bad = over_budget(report)
        failed = failed or bad
        print(
            f"{name:<10} {duration / 3600:>5.0f} {report['kept']:>9d} "
            f"{report['kept'] / report['drawn']:>10.2f} "
            f"{report['seconds']:>8.3f} {report['rss_mb']:>8.1f} "
            f"{report['trace_mb']:>9.1f} "
            f"{report['growth_mb'] / report['trace_mb']:>12.2f}  "
            + ("yes" if report["reached"] else "NO (ran dry)")
            + (f"   OVER BUDGET: grew {report['growth_mb']:.1f} MB" if bad else "")
        )
    print("trace budget [FAIL]" if failed else "trace budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
