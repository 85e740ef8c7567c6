"""Tier gate for the telemetry overhead benchmark (``make bench-telemetry``).

A scaled-down run of :mod:`perf_telemetry` under the lite-timeout
plugin: checks the record shape and that recording stays in the same
cost class as the bare kernel.  The disabled case is the baseline
itself (no sink), so there is no separate null-sink row to gate.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_telemetry import CONFIGS, run_telemetry_benchmark  # noqa: E402


def test_telemetry_overhead_record():
    record = run_telemetry_benchmark(scale=0.05, reps=2)
    total = record["total"]
    assert set(CONFIGS) == {"baseline", "recorder"}
    for name in CONFIGS:
        assert total[f"{name}_s"] > 0
        for row in record["phases"].values():
            assert row[f"{name}_s"] >= 0
    assert record["events"] >= 3000
    # The engine calls a sink once per run(), never per event: a
    # generous small-scale ceiling on what observing costs.
    assert total["recorder_overhead"] < 0.30, (
        f"recorder overhead {total['recorder_overhead']:.1%} — the engine "
        f"should not be paying per event for a sink"
    )
    assert total["recorder_events_per_s"] > 0
