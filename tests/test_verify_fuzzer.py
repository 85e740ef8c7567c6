"""Tests for the seeded config fuzzer (repro.verify.fuzzer)."""

import pytest

from repro.verify import fuzz, generate_configs, minimise
from repro.verify.fuzzer import DEFAULTS, repro_snippet
from repro.verify.scenario import FAMILIES


class TestGenerateConfigs:
    def test_deterministic(self):
        assert generate_configs(5, 10) == generate_configs(5, 10)

    def test_seed_matters(self):
        assert generate_configs(5, 10) != generate_configs(6, 10)

    def test_prefix_stable(self):
        # Trimming a fuzz run never reshuffles it: config i of (seed, n)
        # equals config i of (seed, m).
        long = generate_configs(7, 20)
        short = generate_configs(7, 5)
        assert long[:5] == short

    def test_fields_are_scenario_parameters(self):
        for config in generate_configs(0, 20):
            assert set(config) <= set(DEFAULTS)
            assert config["family"] in FAMILIES
            assert 2 <= config["regions"] <= 16
            assert 0.15 <= config["horizon"] <= 0.4

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            generate_configs(0, -1)


class TestMinimise:
    def test_shrinks_towards_defaults(self):
        # A synthetic failure predicate that only needs two parameters:
        # minimisation must reset everything else to the baseline.
        failing = dict(
            DEFAULTS,
            family="fault-injected",
            algorithm="staggered",
            regions=13,
            request_kb=128,
            cylinders=37,
            seed=4111,
        )

        def still_fails(params):
            return (
                params["family"] == "fault-injected"
                and params["seed"] == 4111
            )

        minimal = minimise(failing, axes=(), still_fails=still_fails)
        assert minimal["family"] == "fault-injected"
        assert minimal["seed"] == 4111
        assert minimal["algorithm"] == DEFAULTS["algorithm"]
        assert minimal["regions"] == DEFAULTS["regions"]
        assert minimal["cylinders"] == DEFAULTS["cylinders"]

    def test_snippet_prints_only_interesting_keys(self):
        params = dict(DEFAULTS, family="fault-injected", seed=4111)
        snippet = repro_snippet(params, axes=("kernel-twin", "telemetry"))
        assert "from repro.verify import run_axes" in snippet
        assert "fault-injected" in snippet
        assert "4111" in snippet
        assert "'drive'" not in snippet  # still at its default
        # The snippet is executable Python.
        compile(snippet, "<snippet>", "exec")


class TestFuzz:
    def test_small_fleet_passes(self):
        seen = []
        report = fuzz(
            seed=7,
            n=4,
            axes=("kernel-twin",),
            progress=lambda i, n: seen.append((i, n)),
        )
        assert report.ok
        assert report.passed == 4
        assert report.failures == []
        assert seen == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert "OK" in report.summary()
        assert "4/4" in report.summary()

    def test_invariants_only_mode(self):
        report = fuzz(seed=7, n=3, axes=())
        assert report.ok
        assert report.passed == 3

    def test_signatures_collected(self):
        report = fuzz(seed=7, n=2, axes=("kernel-twin", "telemetry"))
        assert set(report.signatures) == {0, 1}
        for per_axis in report.signatures.values():
            assert set(per_axis) == {"kernel-twin", "telemetry"}

    def test_failure_collected_not_raised(self):
        # Plant the cursor-drift bug for the whole fleet: the invariant
        # checker (the kernel-twin axis's checked side) must fail every
        # config that replays a record, and fuzz must report rather
        # than raise.
        from repro.verify.selftest import MUTATIONS

        with MUTATIONS["cursor-drift"].patch():
            report = fuzz(seed=0, n=2, axes=("kernel-twin",))
        assert not report.ok
        assert report.passed + len(report.failures) == 2
        failure = report.failures[0]
        assert "InvariantViolation" in failure.describe()
        assert "run_axes" in failure.snippet
