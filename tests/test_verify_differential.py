"""Tests for the differential oracle (repro.verify.differential)."""

import numpy as np
import pytest

from repro.verify import (
    AXES,
    DifferentialMismatch,
    check_parallel,
    outcome_signature,
    run_axes,
    run_scenario,
)

#: One cheap scenario per family; the oracle must pass all axes on each
#: (the ISSUE acceptance criterion asks for >= 3 scenario families).
SCENARIOS = {
    "synthetic": {"family": "synthetic", "horizon": 0.2, "seed": 3},
    "trace-replay": {
        "family": "trace-replay",
        "horizon": 0.2,
        "seed": 3,
        "chunk_requests": 16,
    },
    "fault-injected": {
        "family": "fault-injected",
        "model": "bernoulli",
        "cache_enabled": False,
        "horizon": 0.2,
        "seed": 3,
    },
}


class TestSignatures:
    def test_signature_deterministic(self):
        params = SCENARIOS["synthetic"]
        a = run_scenario(**params)
        b = run_scenario(**params)
        assert outcome_signature(a) == outcome_signature(b)

    def test_signature_sensitive_to_seed(self):
        base = SCENARIOS["synthetic"]
        a = run_scenario(**base)
        b = run_scenario(**{**base, "seed": 4})
        assert outcome_signature(a) != outcome_signature(b)

    def test_signature_sensitive_to_array_content(self):
        a = run_scenario(**SCENARIOS["synthetic"])
        b = run_scenario(**SCENARIOS["synthetic"])
        # A single ULP of drift in one response time must flip it.
        b["response_times"] = b["response_times"].copy()
        b["response_times"][0] = np.nextafter(
            b["response_times"][0], np.inf
        )
        assert outcome_signature(a) != outcome_signature(b)

    def test_include_telemetry_switch(self):
        params = dict(SCENARIOS["synthetic"], telemetry="recorder")
        outcome = run_scenario(**params)
        with_t = outcome_signature(outcome, include_telemetry=True)
        without = outcome_signature(outcome, include_telemetry=False)
        assert with_t != without
        bare = run_scenario(**SCENARIOS["synthetic"])
        assert outcome_signature(bare) == without


class TestRunAxes:
    @pytest.mark.parametrize("family", sorted(SCENARIOS))
    def test_all_axes_agree(self, family):
        signatures = run_axes(SCENARIOS[family])
        # Every axis but the batch-level ``parallel``.
        assert set(signatures) == {
            "kernel-twin", "telemetry", "monitor", "fleet-kernel",
        }
        assert all(len(s) == 64 for s in signatures.values())
        # kernel-twin and telemetry both compare core-only outcomes of
        # the same scenario, so their agreed signatures coincide.
        assert signatures["kernel-twin"] == signatures["telemetry"]

    def test_axis_subset(self):
        signatures = run_axes(SCENARIOS["synthetic"], axes=("kernel-twin",))
        assert list(signatures) == ["kernel-twin"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axes"):
            run_axes(SCENARIOS["synthetic"], axes=("chaos",))

    @pytest.mark.parametrize("axes, sinks", [
        (("kernel-twin", "telemetry"), ["none", "invariants", "recorder"]),
        (("telemetry", "kernel-twin"), ["none", "invariants", "recorder"]),
        (("kernel-twin",), ["none", "invariants"]),
        (("telemetry",), ["none", "recorder"]),
    ])
    def test_the_sink_axes_share_one_bare_run(self, axes, sinks, monkeypatch):
        from repro.verify import differential

        ran = []

        def counted(**params):
            ran.append(params["telemetry"])
            return run_scenario(**params)

        monkeypatch.setattr(differential, "run_scenario", counted)
        signatures = run_axes(SCENARIOS["synthetic"], axes=axes)
        assert ran == sinks
        assert set(signatures) == set(axes)

    def test_oracle_owns_the_switches(self):
        # telemetry in params is stripped, not honoured.
        params = dict(SCENARIOS["synthetic"], telemetry="recorder")
        signatures = run_axes(params, axes=("kernel-twin",))
        assert "kernel-twin" in signatures


class TestMismatch:
    def test_mismatch_names_axis_and_first_difference(self):
        from repro.verify.differential import _compare

        a = run_scenario(**SCENARIOS["synthetic"])
        b = dict(a, completed=a["completed"] + 1)
        with pytest.raises(DifferentialMismatch) as exc:
            _compare("kernel-twin", {"seed": 3}, a, b, include_telemetry=False)
        assert exc.value.axis == "kernel-twin"
        assert "'completed'" in exc.value.detail
        assert "seed" in str(exc.value)


class TestParallelAxis:
    def test_serial_vs_pooled_agree(self):
        params = [SCENARIOS["synthetic"], SCENARIOS["fault-injected"]]
        signatures = check_parallel(params, workers=2)
        assert len(signatures) == 2

    def test_empty_batch(self):
        assert check_parallel([]) == []


class TestMonitorAxis:
    def test_monitored_campaign_bit_identical(self):
        from repro.verify import check_monitor

        # Same seed, same signature: the axis itself is deterministic.
        assert check_monitor(seed=5) == check_monitor(seed=5)

    def test_run_axes_includes_monitor(self):
        from repro.verify.differential import run_axes

        signatures = run_axes(SCENARIOS["synthetic"], axes=("monitor",))
        assert set(signatures) == {"monitor"}


class TestFleetKernelAxis:
    def test_kernel_matches_reference_ledger(self):
        from repro.verify import check_fleet_kernel

        assert check_fleet_kernel(seed=5) == check_fleet_kernel(seed=5)
        assert check_fleet_kernel(seed=5) != check_fleet_kernel(seed=6)

    def test_a_settling_bug_is_caught(self, monkeypatch):
        import repro.fleet.montecarlo as montecarlo
        from repro.verify import check_fleet_kernel

        genuine = montecarlo._settle

        def off_by_one(checkpoints, end, p_lse):
            ledger = list(genuine(checkpoints, end, p_lse))
            if ledger[1] == "lse":
                ledger[4] += 1  # counts the rebuild that lost the group
            return tuple(ledger)

        monkeypatch.setattr(montecarlo, "_settle", off_by_one)
        with pytest.raises(DifferentialMismatch) as exc:
            check_fleet_kernel(seed=5)
        assert exc.value.axis == "fleet-kernel"

    def test_run_axes_includes_fleet_kernel(self):
        signatures = run_axes(SCENARIOS["synthetic"], axes=("fleet-kernel",))
        assert set(signatures) == {"fleet-kernel"}


def test_axes_constant_covers_all_five():
    assert AXES == (
        "kernel-twin", "telemetry", "parallel", "monitor", "fleet-kernel",
    )
