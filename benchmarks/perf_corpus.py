"""Corpus-scale tuning benchmark: out-of-core stores + halving search.

Writes ``BENCH_PR9.json`` next to the repo root.  Three rows:

* ``corpus_build`` — streams a >=1 GB single-entry corpus to disk
  through the bounded re-pack writer (tiled repetitions of a seeded
  catalog day; the writer never holds more than one chunk).
  **Gated**: the entry's packed data really is >= 1 GB;
* ``corpus_open_rss`` — a subprocess opens that corpus and streams a
  full idle-interval extraction over every chunk, reporting its
  ``ru_maxrss`` high-water mark against an import-only baseline
  subprocess.  **Gated**: the scan's resident growth is bounded by a
  fixed multiple of the 25 MiB chunk size — and far below the corpus
  size — so opening a multi-GB corpus costs O(chunk), not O(corpus);
* ``search_vs_grid`` — for every seeded catalog workload, the
  successive-halving search against the true exhaustive grid
  (``optimize(prune=False)``) through
  :func:`repro.verify.search.check_search_vs_grid`.  **Gated**: the
  differential contract holds (slowdown goal met, throughput within
  1% of the grid's optimum) and the search spends >= 5x fewer
  interval-evaluations (the :data:`~repro.analysis.slowdown.SIM_METER`
  effort count — deterministic, so this gate cannot flake) on every
  workload.  The row holds no timing (counts, chosen sizes, relative
  throughput), so it is also **gated against the committed file**:
  any difference from the ``search_vs_grid`` row already in
  ``BENCH_PR9.json`` means the meter's unit or a chosen parameter
  moved, and fails the run before the file is overwritten.

Effort is counted in interval-evaluations rather than wall seconds:
one (idle interval, simulation) question answered, each simulation
charging the size of the idle sample it answers for.  That is
identical across machines and runs, and it is a count of logical work
only — not proportional to simulation-seconds: a threshold bisection
answers most of those questions without touching the interval again
(its working set shrinks as the threshold's lower bound rises).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.service_model import ScrubServiceModel  # noqa: E402
from repro.disk.models import PRESETS  # noqa: E402
from repro.traces import CATALOG, generate_trace  # noqa: E402
from repro.traces.catalog import generate_corpus  # noqa: E402
from repro.traces.idle import idle_intervals_from_trace  # noqa: E402
from repro.traces.store import (  # noqa: E402
    DEFAULT_CHUNK_REQUESTS,
    packed_nbytes,
)
from repro.verify.search import check_search_vs_grid  # noqa: E402

#: Gates.
MIN_CORPUS_BYTES = 1 << 30  # the big entry must really be >= 1 GB
MIN_SPEEDUP = 5.0  # search effort vs the exhaustive grid, per workload
#: The streaming scan may grow RSS by at most this many chunk sizes
#: (one mapped chunk + per-chunk numpy temporaries + allocator slack).
RSS_CHUNK_MULTIPLE = 16

#: Workload suite: every seeded catalog day at this window.
SUITE_DURATION = 3600.0
SUITE_SEED = 0
GOAL = 0.002  # 2 ms mean-slowdown goal, the paper's midpoint


def _check(failures, label, ok, detail=""):
    print(f"  [{'ok' if ok else 'FAIL'}] {label}"
          + (f": {detail}" if detail else ""))
    return failures + (not ok)


def _subprocess_maxrss(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it must print one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


_BASELINE_CODE = """
import json, resource
import numpy as np
import repro.traces.store  # same imports as the scan, no data
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

_SCAN_CODE = """
import json, resource, sys
from repro.traces.idle import idle_intervals_streaming
from repro.traces.store import TraceCorpus

corpus = TraceCorpus.open(sys.argv[1])
name = corpus.names()[0]
stored = corpus.entry(name)
starts, durations = idle_intervals_streaming(stored.iter_chunks())
print(json.dumps({
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "requests": len(stored),
    "chunks": stored.chunk_count,
    "idle_intervals": int(len(durations)),
}))
"""


def bench_big_corpus(rows, failures, tmp):
    """Build the >= 1 GB corpus and gate the streaming scan's RSS."""
    base = generate_trace("MSRusr2", seed=SUITE_SEED)  # one 4h day
    per_rep = packed_nbytes(len(base))
    repetitions = -(-MIN_CORPUS_BYTES // per_rep)  # ceil to >= 1 GB
    corpus_dir = os.path.join(tmp, "corpus1g")
    start = time.perf_counter()
    corpus = generate_corpus(
        corpus_dir, names=["MSRusr2"], seed=SUITE_SEED,
        repetitions=int(repetitions),
    )
    build_s = time.perf_counter() - start
    row = corpus.describe("MSRusr2")
    data_bytes = packed_nbytes(row["requests"])
    print(
        f"corpus_build: {row['requests']:,} requests, "
        f"{data_bytes / 1e9:.2f} GB in {row['chunks']} chunks, "
        f"{build_s:.1f}s ({data_bytes / build_s / 1e6:.0f} MB/s)"
    )
    failures = _check(
        failures, "corpus >= 1 GB", data_bytes >= MIN_CORPUS_BYTES,
        f"{data_bytes:,} bytes",
    )
    rows["corpus_build"] = {
        "workload": f"MSRusr2 x{int(repetitions)} repetitions",
        "requests": int(row["requests"]),
        "bytes": int(data_bytes),
        "chunks": int(row["chunks"]),
        "wall_s": round(build_s, 2),
        "write_mb_per_s": round(data_bytes / build_s / 1e6, 1),
    }

    baseline = _subprocess_maxrss(_BASELINE_CODE)
    scan_code = _SCAN_CODE.replace("sys.argv[1]", repr(corpus_dir))
    start = time.perf_counter()
    scan = _subprocess_maxrss(scan_code)
    scan_s = time.perf_counter() - start
    chunk_bytes = packed_nbytes(DEFAULT_CHUNK_REQUESTS)
    delta = (scan["maxrss_kb"] - baseline["maxrss_kb"]) * 1024
    limit = RSS_CHUNK_MULTIPLE * chunk_bytes
    print(
        f"corpus_open_rss: scan of {scan['chunks']} chunks grew RSS by "
        f"{delta / 1e6:.0f} MB (limit {limit / 1e6:.0f} MB, "
        f"corpus {data_bytes / 1e9:.2f} GB) in {scan_s:.1f}s"
    )
    failures = _check(
        failures, "scan RSS bounded by chunk size", 0 <= delta <= limit,
        f"{delta / 1e6:.0f} MB vs {RSS_CHUNK_MULTIPLE}x{chunk_bytes / 1e6:.0f} MB",
    )
    failures = _check(
        failures, "scan RSS far below corpus size", delta <= data_bytes / 4,
        f"{delta / 1e6:.0f} MB vs {data_bytes / 1e6:.0f} MB on disk",
    )
    rows["corpus_open_rss"] = {
        "workload": "open + full streaming idle extraction, subprocess",
        "baseline_maxrss_kb": int(baseline["maxrss_kb"]),
        "scan_maxrss_kb": int(scan["maxrss_kb"]),
        "delta_bytes": int(delta),
        "limit_bytes": int(limit),
        "chunk_bytes": int(chunk_bytes),
        "idle_intervals": int(scan["idle_intervals"]),
        "scan_wall_s": round(scan_s, 2),
    }
    return failures


def bench_search_suite(rows, failures):
    """Search-vs-grid differential + effort gate on every catalog day."""
    model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
    suite = {}
    identical = 0
    for name in sorted(CATALOG):
        trace = generate_trace(name, duration=SUITE_DURATION, seed=SUITE_SEED)
        _, durations = idle_intervals_from_trace(
            trace, positioning=CATALOG[name].service_positioning
        )
        start = time.perf_counter()
        report = check_search_vs_grid(
            durations, len(trace), trace.duration, model, GOAL,
        )
        wall_s = time.perf_counter() - start
        grid, outcome = report["grid"], report["search"]
        same = grid.request_bytes == outcome.best.request_bytes
        identical += same
        rel = outcome.best.throughput / grid.throughput
        print(
            f"  {name:<10} speedup {report['speedup']:5.1f}x  "
            f"grid {grid.request_bytes >> 10:5d}KB  "
            f"search {outcome.best.request_bytes >> 10:5d}KB  "
            f"rel throughput {rel:.5f}  ({wall_s:.1f}s)"
        )
        failures = _check(
            failures, f"{name}: search effort >= {MIN_SPEEDUP:.0f}x cheaper",
            report["speedup"] >= MIN_SPEEDUP, f"{report['speedup']:.1f}x",
        )
        suite[name] = {
            "idle_intervals": int(len(durations)),
            "speedup": round(report["speedup"], 2),
            "grid_interval_evals": int(report["grid_interval_evals"]),
            "search_interval_evals": int(outcome.interval_evals),
            "grid_request_kb": grid.request_bytes >> 10,
            "search_request_kb": outcome.best.request_bytes >> 10,
            "identical_choice": bool(same),
            "relative_throughput": round(rel, 6),
            "achieved_slowdown_ms": round(
                outcome.best.achieved_slowdown * 1e3, 4
            ),
        }
    speedups = [row["speedup"] for row in suite.values()]
    print(
        f"search_vs_grid: {len(suite)} workloads, speedups "
        f"{min(speedups):.1f}x..{max(speedups):.1f}x, "
        f"{identical}/{len(suite)} identical parameter choices"
    )
    rows["search_vs_grid"] = {
        "workload": (
            f"catalog suite, {SUITE_DURATION:.0f}s days, seed {SUITE_SEED}, "
            f"goal {GOAL * 1e3:.0f}ms"
        ),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "identical_choices": int(identical),
        "workloads": suite,
    }
    return failures


def check_row_unchanged(failures, path, name, row):
    """Gate a deterministic row against the one committed at ``path``."""
    try:
        with open(path) as fh:
            committed = json.load(fh)["rows"][name]
    except (OSError, KeyError):
        return _check(failures, f"{name} row unchanged", True, "no committed row")
    row = json.loads(json.dumps(row))
    if row == committed:
        return _check(failures, f"{name} row identical to the committed one", True)
    changed = sorted(
        key for key in set(row["workloads"]) | set(committed["workloads"])
        if row["workloads"].get(key) != committed["workloads"].get(key)
    )
    return _check(
        failures, f"{name} row identical to the committed one", False,
        f"differs in {', '.join(changed) or 'the summary fields'}",
    )


def main() -> int:
    rows = {}
    failures = 0
    print("== corpus store: build + bounded-RSS scan ==")
    with tempfile.TemporaryDirectory() as tmp:
        failures = bench_big_corpus(rows, failures, tmp)
    print("== successive-halving search vs exhaustive grid ==")
    failures = bench_search_suite(rows, failures)

    payload = {"python": platform.python_version(), "rows": rows}
    out = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_PR9.json",
    )
    failures = check_row_unchanged(
        failures, out, "search_vs_grid", rows["search_vs_grid"]
    )
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    if failures:
        print(f"FAIL: {failures} corpus gate(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
