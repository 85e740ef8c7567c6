"""Tests for the analysis package: collision evaluation, slowdown
simulation, service model, throughput and impact helpers."""

import numpy as np
import pytest

from repro.analysis import (
    ScrubServiceModel,
    evaluate_policy,
    run_impact_experiment,
    simulate_adaptive_waiting,
    simulate_fixed_waiting,
    standalone_scrub_throughput,
    sweep_policy_cls,
)
from repro.analysis.impact import ScrubberSetup
from repro.analysis.throughput import verify_response_times
from repro.core import SequentialScrub, StaggeredScrub
from repro.core.adaptive import (
    ExponentialSchedule,
    FixedSchedule,
    LinearSchedule,
    SwappingSchedule,
)
from repro.core.optimizer import ScrubParameterOptimizer
from repro.core.policies import WaitingPolicy
from repro.disk import hitachi_ultrastar_15k450


@pytest.fixture(scope="module")
def service_model():
    return ScrubServiceModel.from_spec(hitachi_ultrastar_15k450())


@pytest.fixture(scope="module")
def durations():
    rng = np.random.default_rng(17)
    return np.exp(2.2 * rng.standard_normal(30_000)) * 0.05


class TestServiceModel:
    def test_monotone_in_size(self, service_model):
        times = service_model.time(
            np.array([64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024])
        )
        assert np.all(np.diff(times) > 0)

    def test_64k_near_rotation_period(self, service_model):
        # Back-to-back sequential VERIFY is rotation-bound: ~4-5 ms.
        assert 0.004 < float(service_model.time(65536.0)) < 0.006

    def test_extrapolation_beyond_grid(self, service_model):
        inside = float(service_model.time(8 * 1024 * 1024))
        outside = float(service_model.time(16 * 1024 * 1024))
        assert outside > inside * 1.5

    def test_max_size_for_slowdown(self, service_model):
        cap = service_model.max_size_for_slowdown(0.0504)
        # The paper's 50.4 ms budget caps the size at roughly 4 MB.
        assert 2 * 1024 * 1024 < cap < 8 * 1024 * 1024
        assert float(service_model.time(float(cap))) <= 0.0504

    def test_validation(self, service_model):
        with pytest.raises(ValueError):
            service_model.time(0)
        with pytest.raises(ValueError):
            service_model.max_size_for_slowdown(0)
        with pytest.raises(ValueError):
            ScrubServiceModel([1000], [0.1])


class TestCollisionEvaluation:
    def test_point_fields_consistent(self, durations):
        point = evaluate_policy(WaitingPolicy(0.1), durations)
        assert 0 <= point.collision_rate <= 1
        assert 0 <= point.utilisation <= 1
        assert point.collisions == int(
            WaitingPolicy(0.1).fired_mask(durations).sum()
        )

    def test_total_requests_denominator(self, durations):
        base = evaluate_policy(WaitingPolicy(0.1), durations)
        halved = evaluate_policy(
            WaitingPolicy(0.1), durations, total_requests=2 * len(durations)
        )
        assert halved.collision_rate == pytest.approx(base.collision_rate / 2)

    def test_sweep_produces_tradeoff_curve(self, durations):
        points = sweep_policy_cls(WaitingPolicy, [0.05, 0.2, 0.8], durations)
        rates = [p.collision_rate for p in points]
        utils = [p.utilisation for p in points]
        assert rates == sorted(rates, reverse=True)
        assert utils == sorted(utils, reverse=True)

    def test_validation(self, durations):
        with pytest.raises(ValueError):
            evaluate_policy(WaitingPolicy(0.1), np.array([]))
        with pytest.raises(ValueError):
            evaluate_policy(WaitingPolicy(0.1), durations, total_requests=0)


class TestSlowdownSimulation:
    def test_fixed_accounting(self, service_model):
        durations = np.array([1.0])
        s = float(service_model.time(65536.0))
        result = simulate_fixed_waiting(
            durations, 0.1, 65536, service_model, total_requests=10, span=100.0
        )
        usable = 0.9
        complete = int(usable // s)
        assert result.collisions == 1
        expected_delay = s - (usable - complete * s)
        assert result.mean_slowdown == pytest.approx(expected_delay / 10)
        assert result.scrub_bytes == (complete + 1) * 65536

    def test_no_fire_no_slowdown(self, service_model):
        result = simulate_fixed_waiting(
            np.array([0.05]), 0.1, 65536, service_model, 10, 100.0
        )
        assert result.collisions == 0
        assert result.mean_slowdown == 0.0
        assert result.scrub_bytes == 0.0

    def test_larger_threshold_lowers_slowdown(self, durations, service_model):
        low = simulate_fixed_waiting(
            durations, 0.05, 1024 * 1024, service_model, len(durations), 1000.0
        )
        high = simulate_fixed_waiting(
            durations, 1.0, 1024 * 1024, service_model, len(durations), 1000.0
        )
        assert high.mean_slowdown < low.mean_slowdown
        assert high.throughput < low.throughput

    def test_larger_requests_more_throughput_more_slowdown(
        self, durations, service_model
    ):
        small = simulate_fixed_waiting(
            durations, 0.1, 65536, service_model, len(durations), 1000.0
        )
        big = simulate_fixed_waiting(
            durations, 0.1, 4 * 1024 * 1024, service_model, len(durations), 1000.0
        )
        assert big.throughput > small.throughput
        assert big.mean_slowdown > small.mean_slowdown

    def test_adaptive_fixed_dispatch(self, durations, service_model):
        fixed_via_adaptive = simulate_adaptive_waiting(
            durations, 0.1, FixedSchedule(65536), service_model,
            len(durations), 1000.0,
        )
        fixed = simulate_fixed_waiting(
            durations, 0.1, 65536, service_model, len(durations), 1000.0
        )
        assert fixed_via_adaptive.mean_slowdown == pytest.approx(
            fixed.mean_slowdown
        )

    def test_exponential_approaches_cap_fixed(self, durations, service_model):
        """The paper's footnote: adaptive overlaps the max-size fixed curve."""
        cap = 4 * 1024 * 1024
        adaptive = simulate_adaptive_waiting(
            durations, 0.2, ExponentialSchedule(65536, 2.0, cap),
            service_model, len(durations), 1000.0,
        )
        fixed = simulate_fixed_waiting(
            durations, 0.2, cap, service_model, len(durations), 1000.0
        )
        assert adaptive.throughput == pytest.approx(fixed.throughput, rel=0.15)
        assert adaptive.mean_slowdown == pytest.approx(
            fixed.mean_slowdown, rel=0.25
        )

    def test_linear_schedule_runs(self, durations, service_model):
        result = simulate_adaptive_waiting(
            durations[:2000], 0.2,
            LinearSchedule(65536, 2.0, 65536, 4 * 1024 * 1024),
            service_model, 2000, 1000.0,
        )
        assert result.throughput > 0

    def test_swapping_infinite_switch_equals_fixed(self, durations, service_model):
        swap = simulate_adaptive_waiting(
            durations[:5000], 0.2,
            SwappingSchedule(65536, 4 * 1024 * 1024, float("inf")),
            service_model, 5000, 1000.0,
        )
        fixed = simulate_fixed_waiting(
            durations[:5000], 0.2, 65536, service_model, 5000, 1000.0
        )
        assert swap.mean_slowdown == pytest.approx(fixed.mean_slowdown)
        assert swap.throughput == pytest.approx(fixed.throughput)

    def test_validation(self, durations, service_model):
        with pytest.raises(ValueError):
            simulate_fixed_waiting(durations, -1, 65536, service_model, 10, 1.0)
        with pytest.raises(ValueError):
            simulate_fixed_waiting(durations, 0.1, 65536, service_model, 0, 1.0)
        with pytest.raises(ValueError):
            simulate_fixed_waiting(durations, 0.1, 65536, service_model, 10, 0.0)


class TestOptimizer:
    def test_meets_goal_and_beats_cfq_like(self, durations, service_model):
        optimizer = ScrubParameterOptimizer(
            durations, len(durations), 1000.0, service_model
        )
        best = optimizer.optimize(0.002)
        assert best.achieved_slowdown <= 0.002 * 1.01
        cfq_like = simulate_fixed_waiting(
            durations, 0.010, 65536, service_model, len(durations), 1000.0
        )
        assert best.throughput > 2 * cfq_like.throughput

    def test_tighter_goal_not_more_throughput(self, durations, service_model):
        optimizer = ScrubParameterOptimizer(
            durations, len(durations), 1000.0, service_model
        )
        tight = optimizer.optimize(0.0005)
        loose = optimizer.optimize(0.004)
        assert tight.throughput <= loose.throughput * 1.01

    def test_size_cap_respected(self, durations, service_model):
        optimizer = ScrubParameterOptimizer(
            durations, len(durations), 1000.0, service_model,
            max_slowdown=0.010,
        )
        best = optimizer.optimize(0.002)
        assert float(service_model.time(float(best.request_bytes))) <= 0.010

    def test_validation(self, durations, service_model):
        with pytest.raises(ValueError):
            ScrubParameterOptimizer(np.array([]), 1, 1.0, service_model)
        optimizer = ScrubParameterOptimizer(
            durations, len(durations), 1000.0, service_model
        )
        with pytest.raises(ValueError):
            optimizer.best_threshold(65536, 0.0)


class TestThroughputHelpers:
    def test_standalone_sequential(self):
        mbps = standalone_scrub_throughput(
            hitachi_ultrastar_15k450(), SequentialScrub(), horizon=5.0
        ) / 1e6
        assert 10 < mbps < 20

    def test_staggered_beats_sequential_with_many_regions(self):
        seq = standalone_scrub_throughput(
            hitachi_ultrastar_15k450(), SequentialScrub(), horizon=5.0
        )
        stag = standalone_scrub_throughput(
            hitachi_ultrastar_15k450(), StaggeredScrub(256), horizon=5.0
        )
        assert stag > seq

    def test_delay_reduces_throughput(self):
        fast = standalone_scrub_throughput(
            hitachi_ultrastar_15k450(), SequentialScrub(), horizon=3.0
        )
        slow = standalone_scrub_throughput(
            hitachi_ultrastar_15k450(), SequentialScrub(), horizon=3.0,
            delay=0.032,
        )
        assert slow < fast / 3

    def test_verify_response_patterns(self):
        sequential = verify_response_times(
            hitachi_ultrastar_15k450(), 1024, pattern="sequential", samples=30
        )
        assert np.mean(sequential[5:]) == pytest.approx(0.004, rel=0.1)
        with pytest.raises(ValueError):
            verify_response_times(hitachi_ultrastar_15k450(), 1024, pattern="zig")


class TestImpactExperiment:
    def test_scrubber_steals_throughput_at_default_priority(self):
        from repro.sched.request import PriorityClass

        alone = run_impact_experiment(
            hitachi_ultrastar_15k450(), "sequential", horizon=12.0
        )
        contended = run_impact_experiment(
            hitachi_ultrastar_15k450(), "sequential",
            scrubber=ScrubberSetup(priority=PriorityClass.BE), horizon=12.0,
        )
        assert contended.foreground_mbps < alone.foreground_mbps
        assert contended.scrubber_mbps > 1.0

    def test_idle_priority_protects_foreground(self):
        alone = run_impact_experiment(
            hitachi_ultrastar_15k450(), "sequential", horizon=12.0
        )
        gated = run_impact_experiment(
            hitachi_ultrastar_15k450(), "sequential",
            scrubber=ScrubberSetup(), horizon=12.0,
        )
        assert gated.foreground_mbps > 0.75 * alone.foreground_mbps

    def test_random_workload_slower(self):
        seq = run_impact_experiment(
            hitachi_ultrastar_15k450(), "sequential", horizon=10.0
        )
        rand = run_impact_experiment(
            hitachi_ultrastar_15k450(), "random", horizon=10.0
        )
        assert rand.foreground_mbps < seq.foreground_mbps

    def test_validation(self):
        with pytest.raises(ValueError):
            run_impact_experiment(hitachi_ultrastar_15k450(), "mixed")
        with pytest.raises(ValueError):
            run_impact_experiment(
                hitachi_ultrastar_15k450(), "sequential", horizon=0
            )
        with pytest.raises(ValueError):
            ScrubberSetup(algorithm="zigzag").build_algorithm()
