"""The benchmark checks itself, at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest bench/test_bench.py

Not part of the tier-1 suite (``testpaths = tests``): it measures
nothing about ``src/``, only that the benchmark keeps its own contract.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import wl_replay  # noqa: E402

CONTRACT = harness.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def quick_run(workload: str, seed: int, trace: int, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    module, cls = run.WORKLOADS[workload]
    factory = getattr(importlib.import_module(module), cls)
    return harness.run_workload(factory, seed, 0.2, trace, True, 0.0)


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = [
        row["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for row in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    # The whole campaign of runs must fit the driver's cap.
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 12) <= 3420


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_repeats_for_a_seed_and_moves_with_it(workload, monkeypatch):
    plain = quick_run(workload, 1, 0, monkeypatch)
    traced = quick_run(workload, 1, 1, monkeypatch)
    other = quick_run(workload, 2, 0, monkeypatch)
    for result in (plain, traced, other):
        assert result.correct and result.failed == 0, result.errors
        assert result.attempted >= 1

    assert set(plain.metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(traced.metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    assert all(row["value"] > 0 for row in plain.metrics.values())
    final = json.loads(plain.final_line())
    assert set(final) == {"correct", "attempted", "failed", "metrics"}

    # Simulated outputs are exact for a seed, traced or not.
    assert plain.result_digest == traced.result_digest
    assert plain.counts == traced.counts and plain.counts
    assert other.result_digest != plain.result_digest
    exact = {
        name: row["value"]
        for name, row in traced.metrics.items()
        if row["unit"] == "count" and name in plain.counts
    }
    assert all(plain.counts[name] == value for name, value in exact.items())


@pytest.fixture
def raising_config(monkeypatch):
    """``replay_dense`` with a configuration whose scrubber cannot be built."""
    from repro.analysis.impact import ScrubberSetup

    monkeypatch.setitem(
        wl_replay.CONFIGS, "bogus", {"scrubber": ScrubberSetup(algorithm="no-such")}
    )
    monkeypatch.setattr(wl_replay.ReplayDense, "configs", ("none", "bogus"))


def test_a_raising_config_fails_the_run(raising_config, monkeypatch):
    result = quick_run("replay_dense", 1, 0, monkeypatch)
    assert not result.correct
    assert 0 < result.failed <= result.attempted
    assert any("no-such" in error for error in result.errors)


def test_failed_checks_exit_nonzero(raising_config, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    status = run.main(
        ["--workload", "replay_dense", "--quick", "--seconds", "0.2",
         "--out", str(tmp_path)]
    )
    assert status == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [value * 0.8 for value in base]
    faster = [value * 1.3 for value in base]
    assert compare.judge(base, base, "higher", 0.10)[0] == "same"
    assert compare.judge(base, slower, "higher", 0.10)[0] == "worse"
    assert compare.judge(base, slower, "lower", 0.10)[0] == "better"
    verdict, _, claim = compare.judge(base, faster, "higher", 0.10)
    assert verdict == "better" and claim.startswith("yes")
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 90.0, 110.0, 70.0, 130.0, 100.0]
    assert compare.judge(noisy, base, "higher", 0.10)[0] == "unresolved"
    assert compare.judge(base[:3], faster[:3], "higher", 0.10)[2].startswith("no (pairs")
