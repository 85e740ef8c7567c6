"""Trace budget: what synthesising a catalog trace costs beyond the trace,
and what streaming a stored corpus costs beyond one chunk.

``make trace-budget`` runs this.  Synthesis rows: for every catalog
entry at the CLI's default ``--duration`` (4 h, seed 0), then for
MSRsrc11 at the benchmark's 6 h and at one day (seed 7), a fresh
interpreter calls ``generate_trace`` and reports

* requests kept and kept / drawn -- the burst estimate ignores the hour
  profile, so a trace that starts in quiet hours draws 5-8x what it
  keeps and one that starts in busy hours runs out (DESIGN section 19);
* wall seconds and max RSS of the process;
* RSS growth during the call over the bytes of the trace's four columns;
* whether the trace reached its duration (no run-dry ``RuntimeWarning``).

A synthesis row fails when its RSS growth exceeds ``3 x trace bytes +
32 MB``: block-wise synthesis holds the columns, the untouched output
buffer and a few megabyte-sized blocks, where one pass over the whole
draw read 11x at 6 h.  A run-dry row is reported, not failed -- fixing
the estimate changes traces and is ROADMAP's to schedule.

The corpus row: one fresh interpreter writes a corpus of MSRusr2's 4 h
day (seed 0) tiled to at least 1 GiB of packed columns
(``generate_corpus(repetitions=)``), and a second one opens it and runs
``idle_intervals_streaming`` over every chunk.  The row fails when the
scan grows its process by more than 16 chunks of packed columns or by
more than a quarter of the corpus, or when the corpus is under 1 GiB.
Growth is the scan child's own: ``ru_maxrss`` is a high-water mark an
exec'd child starts from its parent's peak, so this process imports
nothing but the standard library and never holds the corpus.

Exit status 1 when any row fails.  The seconds are printed for the
reader and never judged here (this box runs the same work 0.8-1.5x from
minute to minute).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import List, Tuple

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CLI_DEFAULT_DURATION = 4 * 3600.0
GROWTH_FACTOR = 3.0
GROWTH_SLACK_MB = 32.0

CORPUS_ENTRY = "MSRusr2"
CORPUS_MIN_BYTES = 1 << 30
SCAN_CHUNKS = 16
SCAN_SHARE = 0.25

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


_NAMES = """
import json
from repro.traces import CATALOG
print(json.dumps(sorted(CATALOG)))
"""

_BUILD = """
import json, sys, time
from repro.traces import generate_trace
from repro.traces.catalog import generate_corpus
from repro.traces.store import DEFAULT_CHUNK_REQUESTS, packed_nbytes

directory, name, minimum = sys.argv[1], sys.argv[2], int(sys.argv[3])
start = time.perf_counter()
repetitions = -(-minimum // packed_nbytes(len(generate_trace(name, seed=0))))
corpus = generate_corpus(directory, names=[name], seed=0, repetitions=repetitions)
row = corpus.describe(name)
print(json.dumps({
    "seconds": time.perf_counter() - start,
    "chunks": row["chunks"],
    "data_mb": packed_nbytes(row["requests"]) / 2.0**20,
    "chunk_mb": packed_nbytes(DEFAULT_CHUNK_REQUESTS) / 2.0**20,
}))
"""

_SCAN = """
import json, resource, sys, time
from repro.traces.idle import idle_intervals_streaming
from repro.traces.store import TraceCorpus

def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

before = max_rss_mb()
start = time.perf_counter()
stored = TraceCorpus.open(sys.argv[1]).entry(sys.argv[2])
_, durations = idle_intervals_streaming(stored.iter_chunks())
seconds, after = time.perf_counter() - start, max_rss_mb()
print(json.dumps({
    "seconds": seconds,
    "rss_mb": after,
    "growth_mb": after - before,
    "intervals": len(durations),
}))
"""


def probe(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last line of output is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"probe exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def rows() -> List[Tuple[str, float, int]]:
    """(catalog entry, duration, seed) for every judged synthesis call."""
    return [(name, CLI_DEFAULT_DURATION, 0) for name in probe(_NAMES)] + [
        ("MSRsrc11", 6 * 3600.0, 7),
        ("MSRsrc11", 24 * 3600.0, 7),
    ]


def measure(name: str, duration: float, seed: int) -> dict:
    """One ``generate_trace`` call in a fresh interpreter."""
    return probe(_PROBE, name, str(duration), str(seed))


def measure_corpus(directory: str) -> dict:
    """Build the corpus in one fresh interpreter, scan it in another."""
    build = probe(_BUILD, directory, CORPUS_ENTRY, str(CORPUS_MIN_BYTES))
    return {"build": build, "scan": probe(_SCAN, directory, CORPUS_ENTRY)}


def over_budget(report: dict) -> bool:
    allowed = GROWTH_FACTOR * report["trace_mb"] + GROWTH_SLACK_MB
    return report["growth_mb"] > allowed


def corpus_over_budget(report: dict) -> bool:
    build, growth = report["build"], report["scan"]["growth_mb"]
    return (
        build["data_mb"] * 2.0**20 < CORPUS_MIN_BYTES
        or growth > SCAN_CHUNKS * build["chunk_mb"]
        or growth > SCAN_SHARE * build["data_mb"]
    )


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
    with tempfile.TemporaryDirectory() as tmp:
        report = measure_corpus(os.path.join(tmp, "corpus"))
    build, scan = report["build"], report["scan"]
    bad = corpus_over_budget(report)
    failed = failed or bad
    print(
        f"\n{'corpus':<10} {'MB':>6} {'chunks':>6} {'build s':>8} "
        f"{'scan s':>7} {'rss MB':>7} {'growth MB':>9} {'limit MB':>9}"
    )
    limit = min(SCAN_CHUNKS * build["chunk_mb"], SCAN_SHARE * build["data_mb"])
    print(
        f"{CORPUS_ENTRY:<10} {build['data_mb']:>6.0f} {build['chunks']:>6d} "
        f"{build['seconds']:>8.1f} {scan['seconds']:>7.1f} "
        f"{scan['rss_mb']:>7.1f} {scan['growth_mb']:>9.1f} {limit:>9.1f}"
        + ("   OVER BUDGET" if bad else "")
    )
    print("trace budget [FAIL]" if failed else "trace budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
