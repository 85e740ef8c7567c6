"""Observability overhead benchmark: monitoring must be (nearly) free.

Writes ``BENCH_PR8.json`` next to the repo root.  Four rows:

* ``obs_monitor_overhead`` — the same serial campaign bare and under a
  :class:`~repro.obs.monitor.CampaignMonitor` at a 0.25s status interval (8x
  faster than the CLI default, so a deployed monitor sits well inside
  it).  **Gated**: the monitored run must stay within 5% of the bare
  run, and the results must be bit-identical (the passivity contract);
* ``obs_monitor_worstcase`` — the same campaign at ``interval=0``,
  every event rewriting ``status.json``.  Informational: this
  configuration exists for the differential oracle and tests, not for
  operators, and its cost is dominated by filesystem traffic that
  varies wildly on shared CI boxes;
* ``obs_status_schema`` — structural checks on the final
  ``status.json`` (version, terminal state, progress 1.0, per-shard
  rows) and on the Perfetto trace (valid events, phase spans nested
  per shard).  **Gated** on every check passing;
* ``obs_report`` — wall time to build the HTML report from the obs
  directory (informational).

Bare and monitored runs are interleaved and best-of-3 timed so CPU
frequency drift and scheduler noise do not load the ratio one way.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fleet import (  # noqa: E402
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor  # noqa: E402
from repro.obs.report import build_report  # noqa: E402

OVERHEAD_LIMIT = 0.05


def make_spec(groups: int = 3000) -> CampaignSpec:
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=8,
            mttr_hours=24.0,
            spare_delay_hours=4.0,
            classes=(
                DriveClass(mttf_hours=1.0e5, lse_burst_rate_per_hour=1e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=62.0,
            ),
        ),
        mission_years=10.0,
        seed=0,
        shards=16,
    )


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _paired_ratio(pairs: int, run_a, run_b):
    """Median B/A wall-time ratio over back-to-back paired runs.

    Timing noise on a shared box (frequency drift, neighbours, page
    cache) dwarfs a few-percent true difference when A and B are timed
    in separate blocks.  Running each pair back to back makes both
    sides see the same machine state; alternating the order inside the
    pair cancels any systematic second-run advantage; the median ratio
    discards pairs that caught a noise spike.
    """
    ratios = []
    best_a = best_b = float("inf")
    result_a = result_b = None
    for index in range(pairs):
        if index % 2 == 0:
            result_a, a_s = _timed(run_a)
            result_b, b_s = _timed(run_b)
        else:
            result_b, b_s = _timed(run_b)
            result_a, a_s = _timed(run_a)
        ratios.append(b_s / a_s)
        best_a = min(best_a, a_s)
        best_b = min(best_b, b_s)
    median = sorted(ratios)[len(ratios) // 2]
    return (result_a, best_a), (result_b, best_b), median


def _check(failures, label, ok, detail=""):
    print(f"  [{'ok' if ok else 'FAIL'}] {label}"
          + (f": {detail}" if detail else ""))
    return failures + (not ok)


def main() -> int:
    spec = make_spec()
    rows = {}
    failures = 0

    with tempfile.TemporaryDirectory() as tmp:
        obs_dir = os.path.join(tmp, "obs")

        def bare_run():
            return CampaignRunner(spec).run()

        def monitored_run():
            return CampaignRunner(
                spec, monitor=CampaignMonitor(obs_dir, interval=0.25)
            ).run()

        def worstcase_run():
            # Every event rewrites status.json — the differential
            # oracle's configuration, not an operator's.
            return CampaignRunner(
                spec, monitor=CampaignMonitor(obs_dir, interval=0.0)
            ).run()

        CampaignRunner(make_spec(groups=100)).run()  # warm caches/JIT paths
        (bare, bare_s), (monitored, mon_s), median_ratio = _paired_ratio(
            5, bare_run, monitored_run
        )
        overhead = median_ratio - 1.0
        identical = (
            monitored.metrics_dict() == bare.metrics_dict()
            and monitored.telemetry == bare.telemetry
        )
        rows["obs_monitor_overhead"] = {
            "workload": (
                f"{spec.fleet.groups} raid5 groups x 8 drives x 2 policies, "
                f"{spec.mission_years:g}y, serial, monitor interval=0.25s"
            ),
            "bare_s": round(bare_s, 4),
            "monitored_s": round(mon_s, 4),
            "overhead_fraction": round(overhead, 4),
            "method": "median ratio over 5 back-to-back pairs",
            "limit": OVERHEAD_LIMIT,
            "bit_identical": identical,
        }
        print(
            f"obs_monitor_overhead: bare {bare_s:.3f}s vs monitored "
            f"{mon_s:.3f}s, median paired ratio {overhead * 100:+.2f}% "
            f"(limit {OVERHEAD_LIMIT * 100:.0f}%)"
        )
        failures = _check(
            failures, "overhead within limit", overhead <= OVERHEAD_LIMIT,
            f"{overhead * 100:+.2f}%",
        )
        failures = _check(failures, "monitored run bit-identical", identical)

        worst, worst_s = _timed(worstcase_run)
        worst_identical = worst.metrics_dict() == bare.metrics_dict()
        rows["obs_monitor_worstcase"] = {
            "workload": "same campaign, interval=0 (status.json per event)",
            "wall_s": round(worst_s, 4),
            "overhead_fraction": round(worst_s / bare_s - 1.0, 4),
            "bit_identical": worst_identical,
        }
        print(
            f"obs_monitor_worstcase: {worst_s:.3f}s "
            f"({(worst_s / bare_s - 1.0) * 100:+.2f}%, informational)"
        )
        failures = _check(
            failures, "worst-case run bit-identical", worst_identical
        )

        print("obs_status_schema:")
        with open(os.path.join(obs_dir, "status.json")) as fh:
            status = json.load(fh)
        checks = {
            "version >= 1": status.get("version", 0) >= 1,
            "terminal state": status.get("state") in ("done", "degraded"),
            "progress 1.0": status.get("progress") == 1.0,
            "durable <= live": (
                status.get("progress") <= status.get("progress_live", 0)
            ),
            "all shards listed": (
                len(status.get("per_shard", [])) == spec.shards
            ),
            "all shards done": all(
                row["state"] == "done" for row in status.get("per_shard", [])
            ),
            "throughput recorded": (
                status.get("throughput", {}).get("drive_years", 0) > 0
            ),
            "final policies": (
                [p["name"] for p in status.get("final", {}).get("policies", [])]
                == ["weekly", "staggered"]
            ),
        }
        with open(os.path.join(obs_dir, "trace.json")) as fh:
            trace = json.load(fh)
        spans = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
        phases = [e for e in spans if e.get("cat") == "phase"]
        checks["trace has spans"] = len(spans) >= spec.shards
        checks["phase spans per shard"] = len(phases) == spec.shards * 2
        checks["span ids stamped"] = all(
            len(e.get("args", {}).get("span_id", "")) == 16 for e in spans
        )
        for label, ok in checks.items():
            failures = _check(failures, label, ok)
        rows["obs_status_schema"] = {
            "workload": "final status.json + trace.json structure",
            "checks": {label: bool(ok) for label, ok in checks.items()},
        }

        start = time.perf_counter()
        report_path = build_report(obs_dir)
        report_s = time.perf_counter() - start
        rows["obs_report"] = {
            "workload": "HTML report from the finished obs directory",
            "wall_s": round(report_s, 4),
            "bytes": os.path.getsize(report_path),
        }
        print(
            f"obs_report: {os.path.getsize(report_path):,} bytes "
            f"in {report_s * 1000:.1f}ms"
        )

    payload = {"python": platform.python_version(), "rows": rows}
    out = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_PR8.json",
    )
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    if failures:
        print(f"FAIL: {failures} observability gate(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
