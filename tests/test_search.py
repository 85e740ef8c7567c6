"""Successive-halving parameter search (repro.core.search) and its
differential safety contract vs the exhaustive grid
(repro.verify.search).

The search is a pruning optimisation: same answer (within the
documented 1% throughput tolerance — identical in practice), a
fraction of the simulation effort, and bit-identical reruns under the
same seed.
"""

import numpy as np
import pytest

import repro.analysis.slowdown as slowdown_module
import repro.core.optimizer as optimizer_module
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER
from repro.core.optimizer import ScrubParameterOptimizer
from repro.core.search import (
    MIN_RUNG_SAMPLE,
    RUNG_FRACTIONS,
    RUNG_ITERATIONS,
    SearchOutcome,
    SuccessiveHalvingSearch,
)
from repro.disk.models import PRESETS
from repro.traces import generate_trace
from repro.traces.catalog import trace_idle_intervals
from repro.traces.idle import idle_intervals_from_trace
from repro.verify import DifferentialMismatch, check_search_vs_grid
from repro.verify.search import DEFAULT_SEARCH_TOLERANCE
from tools import search_golden


@pytest.fixture(scope="module")
def workload():
    """One seeded catalog workload's tuning inputs (module-cached)."""
    trace = generate_trace("MSRusr2", duration=1800, seed=0)
    _, durations = idle_intervals_from_trace(trace)
    model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
    return {
        "durations": durations,
        "total_requests": len(trace),
        "span": trace.duration,
        "service_model": model,
    }


GOAL = 0.002  # 2ms mean slowdown


class TestSearch:
    def test_matches_exhaustive_grid(self, workload):
        grid = ScrubParameterOptimizer(**workload).optimize(GOAL)
        outcome = SuccessiveHalvingSearch(**workload).search(GOAL)
        assert outcome.best.request_bytes == grid.request_bytes
        assert outcome.best.threshold == grid.threshold
        assert outcome.best.throughput == grid.throughput

    def test_same_seed_rerun_bit_identical(self, workload):
        a = SuccessiveHalvingSearch(**workload, seed=42).search(GOAL)
        b = SuccessiveHalvingSearch(**workload, seed=42).search(GOAL)
        assert a.best == b.best
        assert a.rungs == b.rungs  # same subsamples, sims, survivors
        assert a.sims == b.sims

    def test_seed_changes_subsample_not_answer(self, workload):
        a = SuccessiveHalvingSearch(**workload, seed=1).search(GOAL)
        b = SuccessiveHalvingSearch(**workload, seed=2).search(GOAL)
        assert a.best.request_bytes == b.best.request_bytes
        assert a.best.throughput == b.best.throughput

    def test_costs_a_fraction_of_the_grid(self, workload):
        before = SIM_METER.snapshot()
        ScrubParameterOptimizer(**workload).optimize(GOAL, prune=False)
        mid = SIM_METER.snapshot()
        outcome = SuccessiveHalvingSearch(**workload).search(GOAL)
        grid_evals = mid["interval_evals"] - before["interval_evals"]
        assert outcome.interval_evals * 5 <= grid_evals

    def test_effort_accounting_via_sim_meter(self, workload):
        outcome = SuccessiveHalvingSearch(**workload).search(GOAL)
        assert isinstance(outcome, SearchOutcome)
        assert outcome.sims > 0 and outcome.interval_evals > 0
        assert outcome.rungs  # at least one elimination rung ran
        rung0 = outcome.rungs[0]
        assert rung0.sample >= min(
            MIN_RUNG_SAMPLE, len(workload["durations"])
        )
        # survivors shrink monotonically toward the final rung
        for prev, nxt in zip(outcome.rungs, outcome.rungs[1:]):
            assert set(nxt.arms) == set(prev.survivors)
            assert len(nxt.survivors) <= len(prev.survivors)

    def test_invalid_goal_raises_like_the_grid(self, workload):
        with pytest.raises(ValueError, match="slowdown_goal"):
            ScrubParameterOptimizer(**workload).optimize(0.0)
        with pytest.raises(ValueError, match="slowdown_goal"):
            SuccessiveHalvingSearch(**workload).search(0.0)

    def test_extreme_goal_still_matches_the_grid(self, workload):
        """A goal near float resolution forces every rung to the
        max-threshold corner; search and grid must still agree."""
        goal = 1e-9
        grid = ScrubParameterOptimizer(**workload).optimize(goal)
        outcome = SuccessiveHalvingSearch(**workload).search(goal)
        assert outcome.best.achieved_slowdown <= goal
        assert outcome.best.throughput >= grid.throughput * (
            1 - DEFAULT_SEARCH_TOLERANCE
        )

    def test_schedule_validation(self, workload):
        with pytest.raises(ValueError, match="keep_min"):
            SuccessiveHalvingSearch(**workload, keep_min=0)

    def test_tiny_sample_degenerates_to_exact_search(self, workload):
        """With fewer intervals than MIN_RUNG_SAMPLE every rung sees the
        full sample, so the search is the grid restricted to survivors."""
        small = {**workload, "durations": workload["durations"][:512]}
        grid = ScrubParameterOptimizer(**small).optimize(GOAL)
        outcome = SuccessiveHalvingSearch(**small).search(GOAL)
        assert outcome.best.throughput >= grid.throughput * (
            1 - DEFAULT_SEARCH_TOLERANCE
        )


class TestTuningRefusesNonFiniteInput:
    """NaN fails every comparison, so a check written ``x <= 0`` lets it
    through: a NaN goal used to return a "best" of throughput 0.0, a
    NaN span a throughput of nan, and one infinite duration a threshold
    of inf."""

    def test_a_nan_goal_raises_like_a_non_positive_one(self, workload):
        optimizer = ScrubParameterOptimizer(**workload)
        search = SuccessiveHalvingSearch(**workload)
        for goal in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="slowdown_goal"):
                optimizer.optimize(goal)
            with pytest.raises(ValueError, match="slowdown_goal"):
                search.search(goal)
            with pytest.raises(ValueError, match="slowdown_goal"):
                optimizer.best_threshold(65536, goal)
            with pytest.raises(ValueError, match="slowdown_goal"):
                optimizer._rung_scores([65536], goal, 20, search._sorted)

    def test_an_infinite_goal_is_met_at_threshold_zero(self, workload):
        best = SuccessiveHalvingSearch(**workload).search(float("inf")).best
        grid = ScrubParameterOptimizer(**workload).optimize(float("inf"))
        assert best == grid and best.threshold == 0.0

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d.reshape(1, -1), "1-D"),
        (lambda d: d[:0], "non-empty"),
        (lambda d: np.append(d, np.nan), "finite and non-negative"),
        (lambda d: np.append(d, np.inf), "finite and non-negative"),
        (lambda d: np.append(d, -np.inf), "finite and non-negative"),
        (lambda d: np.append(d, -1e-9), "finite and non-negative"),
    ], ids=["2-D", "empty", "nan", "inf", "-inf", "negative"])
    def test_a_sample_no_trace_has_is_refused(self, workload, damage, message):
        inputs = {**workload, "durations": damage(workload["durations"])}
        with pytest.raises(ValueError, match=message):
            ScrubParameterOptimizer(**inputs)
        with pytest.raises(ValueError, match=message):
            SuccessiveHalvingSearch(**inputs)

    @pytest.mark.parametrize("span", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_span_no_window_has_is_refused(self, workload, span):
        with pytest.raises(ValueError, match="span"):
            ScrubParameterOptimizer(**{**workload, "span": span})
        with pytest.raises(ValueError, match="span"):
            SuccessiveHalvingSearch(**{**workload, "span": span})

    @pytest.mark.parametrize("threshold, span, message", [
        (float("nan"), 10.0, "threshold"),
        (0.0, float("nan"), "span"),
    ])
    def test_a_pass_refuses_a_nan_threshold_or_span(
        self, workload, threshold, span, message
    ):
        model = workload["service_model"]
        with pytest.raises(ValueError, match=message):
            slowdown_module.simulate_fixed_waiting(
                workload["durations"], threshold, 65536, model, 100, span
            )


def _sizes(first_64k, last_64k=64):
    return tuple(k * 65536 for k in range(first_64k, last_64k + 1))


class TestSearchEffortIsPinned:
    """The effort meter's unit is fixed: a simulation charges the size
    of the idle sample it answers for, however few array elements the
    bisection's working set still holds.  These literals were read off
    the search before it pruned; a silent redefinition fails here."""

    #: The winner's (threshold, throughput, achieved slowdown), bit for
    #: bit: the effort above can stay put while the arithmetic moves.
    CHOSEN = {
        "MSRusr2": ("0x1.e911778dc5d6ap-6", "0x1.6d11465b7d90bp+26",
                    "0x1.059c4740a9448p-9"),
        "TPCdisk88": ("0x1.05e456e9e505ap-8", "0x1.1481fa4e3e5b1p+27",
                      "0x1.0623557950cfbp-9"),
    }

    @pytest.mark.parametrize(
        "name, intervals, interval_evals, sims, rungs",
        [
            ("MSRusr2", 2879, 1425922, 2131,
             [(512, 1345, 688640), (512, 484, 247808), (720, 176, 126720)]),
            ("TPCdisk88", 298840, 66418312, 2194,
             [(4670, 1408, 6575360), (18678, 484, 9040152),
              (74710, 176, 13148960)]),
        ],
    )
    def test_catalog_day_reports_the_recorded_effort(
        self, name, intervals, interval_evals, sims, rungs
    ):
        trace = generate_trace(name, duration=600.0, seed=7)
        _, durations = trace_idle_intervals(name, trace)
        assert len(durations) == intervals
        model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
        outcome = SuccessiveHalvingSearch(
            durations, len(trace), trace.duration, model
        ).search(GOAL)
        assert (outcome.interval_evals, outcome.sims) == (interval_evals, sims)
        assert [
            (rung.sample, rung.sims, rung.interval_evals) for rung in outcome.rungs
        ] == rungs
        assert [rung.survivors for rung in outcome.rungs] == [
            _sizes(43), _sizes(57), _sizes(62)
        ]
        best = outcome.best
        assert best.request_bytes == 4 << 20
        assert (
            best.threshold.hex(), best.throughput.hex(),
            best.achieved_slowdown.hex(),
        ) == self.CHOSEN[name]


def stable_rung_sample(search, rung, fraction):
    """What a rung strided before it read one value sort: the sample
    gathered by the stable argsort, at the rung's seeded positions."""
    durations = search._full.durations
    n = len(durations)
    ordered = durations[np.argsort(durations, kind="stable")]
    m = min(n, max(MIN_RUNG_SAMPLE, int(np.ceil(n * fraction))))
    if m >= n:
        return ordered
    offset = float(np.random.default_rng([search.seed, rung]).random())
    positions = ((np.arange(m) + offset) * (n / m)).astype(np.intp)
    return ordered[np.minimum(positions, n - 1)]


class TestRungSample:
    def test_sorts_the_sample_once_per_search_object(self, workload, monkeypatch):
        """A search object calls ``np.sort`` once, for every rung of
        every goal, and ``np.argsort`` never."""
        sorts, argsorts = [], []
        real_sort, real_argsort = np.sort, np.argsort

        def counting_sort(*args, **kwargs):
            sorts.append(len(args[0]))
            return real_sort(*args, **kwargs)

        def counting_argsort(*args, **kwargs):
            argsorts.append(len(args[0]))
            return real_argsort(*args, **kwargs)

        search = SuccessiveHalvingSearch(**workload)
        fresh = SuccessiveHalvingSearch(**workload)
        monkeypatch.setattr(np, "sort", counting_sort)
        monkeypatch.setattr(np, "argsort", counting_argsort)
        first = search.search(GOAL)
        second = search.search(GOAL / 2)
        assert len(first.rungs) == len(second.rungs) == 3
        assert sorts == [len(workload["durations"])] and argsorts == []
        # Reusing the sorted sample changes nothing: a new object agrees.
        assert fresh.search(GOAL / 2) == second

    def test_order_is_the_stable_order_on_tied_samples(self, workload):
        """On samples full of ties every rung's sample holds, byte for
        byte, the values at its positions of the stable index order."""
        rng = np.random.default_rng(5)
        for case in range(300):
            n = int(rng.integers(1, 3000))
            kind = case % 3
            if kind == 0:  # rounded lognormals: runs of every length
                durations = np.round(rng.lognormal(-4.0, 2.0, n), 3)
            elif kind == 1:
                durations = np.full(n, rng.uniform(0.01, 1.0))
            else:  # a handful of distinct values, many copies
                durations = rng.choice(rng.lognormal(-3.0, 1.5, 5), n)
            search = SuccessiveHalvingSearch(
                **{**workload, "durations": durations}, seed=case
            )
            for rung, fraction in enumerate(RUNG_FRACTIONS):
                sample = search._rung_sample(rung, fraction)
                expected = stable_rung_sample(search, rung, fraction)
                assert sample.tobytes() == expected.tobytes()

    def test_rung_samples_equal_those_of_the_stable_order(self, workload):
        """On the TPCdisk66 day (2 tied pairs among 312,598 intervals)
        every rung strides the stable order's values, byte for byte."""
        trace = generate_trace("TPCdisk66", duration=600.0, seed=0)
        _, durations = trace_idle_intervals("TPCdisk66", trace)
        search = SuccessiveHalvingSearch(**{**workload, "durations": durations})
        ordered = search._sorted
        assert np.count_nonzero(ordered[1:] == ordered[:-1]) == 2
        for rung, fraction in enumerate(RUNG_FRACTIONS):
            sample = search._rung_sample(rung, fraction)
            expected = stable_rung_sample(search, rung, fraction)
            assert len(sample) < len(durations)
            assert sample.tobytes() == expected.tobytes()

    def test_last_position_stays_in_range_at_the_largest_offset(
        self, workload, monkeypatch
    ):
        """``Generator.random()`` can return ``1 - 2**-53``; ``(m - 1) +
        offset`` then rounds to ``m`` and the last stride position to
        ``n`` — one past the end for this ``(n, fraction)``."""

        class LargestOffset:
            def random(self):
                return 1.0 - 2.0 ** -53

        monkeypatch.setattr(
            np.random, "default_rng", lambda *args, **kwargs: LargestOffset()
        )
        n = 199_980
        durations = np.arange(1.0, n + 1.0)[::-1].copy()
        search = SuccessiveHalvingSearch(**{**workload, "durations": durations})
        sample = search._rung_sample(2, 1 / 4)
        assert len(sample) == 49_995
        assert sample[-1] == float(n)  # clipped onto the longest
        assert np.all(np.diff(sample) > 0)  # in duration order


class TestRungBisectsInLockstep:
    def test_one_waiting_pass_per_step_serves_every_arm(
        self, workload, monkeypatch
    ):
        """A rung of A arms that all bisect runs no whole Waiting pass,
        builds no result and sorts nothing: the Waiting arithmetic runs
        once to decide every arm's threshold 0, once per lockstep step
        and once to score every arm, whatever A is; the threshold-max
        pass is metered but not run.  A per-arm bisection would run the
        arithmetic 2A + RUNG_ITERATIONS * A times and build 3A results."""
        calls, passes, built, sorts = [], [], [], []
        real_arrays = slowdown_module._waiting_arrays
        real_pass = optimizer_module.fixed_waiting_pass
        real_result = slowdown_module.SlowdownResult
        real_sort, real_argsort = np.sort, np.argsort

        def counting_arrays(*args):
            calls.append(len(args[0]))
            return real_arrays(*args)

        def counting_pass(*args):
            passes.append(args[2])
            return real_pass(*args)

        def counting_result(**fields):
            built.append(fields["threshold"])
            return real_result(**fields)

        def counting_sort(*args, **kwargs):
            sorts.append(len(args[0]))
            return real_sort(*args, **kwargs)

        def counting_argsort(*args, **kwargs):
            sorts.append(len(args[0]))
            return real_argsort(*args, **kwargs)

        search = SuccessiveHalvingSearch(**workload)
        arms = list(search._full.admissible_sizes())
        search._sorted  # the search object's one sort, before the rung
        monkeypatch.setattr(slowdown_module, "_waiting_arrays", counting_arrays)
        monkeypatch.setattr(optimizer_module, "_waiting_arrays", counting_arrays)
        monkeypatch.setattr(optimizer_module, "fixed_waiting_pass", counting_pass)
        monkeypatch.setattr(slowdown_module, "SlowdownResult", counting_result)
        monkeypatch.setattr(np, "sort", counting_sort)
        monkeypatch.setattr(np, "argsort", counting_argsort)
        report = search._run_rung(0, RUNG_FRACTIONS[0], arms, GOAL / 2)
        a = len(arms)  # each bisects: threshold 0, threshold max, the steps
        assert a == 64 and report.sims == a * (2 + RUNG_ITERATIONS)
        assert passes == [] and built == [] and sorts == []
        assert len(calls) == 2 + RUNG_ITERATIONS

    def test_rungs_touch_a_sliver_of_what_they_meter(self, monkeypatch):
        """On the TPCdisk66 day the three rungs hand ``_waiting_arrays``
        at most 1% of the interval evaluations they are charged: the
        bulk of every step is read off the prefix sums.  (Bisecting
        every arm on every step's whole suffix handed it 14.8%.)"""
        elements = []
        real_arrays = optimizer_module._waiting_arrays

        def counting_arrays(usable, service):
            elements.append(len(usable))
            return real_arrays(usable, service)

        trace = generate_trace("TPCdisk66", duration=600.0, seed=7)
        _, durations = trace_idle_intervals("TPCdisk66", trace)
        search = SuccessiveHalvingSearch(
            durations, len(trace), trace.duration,
            ScrubServiceModel.from_spec(PRESETS["ultrastar"]()),
        )
        monkeypatch.setattr(optimizer_module, "_waiting_arrays", counting_arrays)
        arms, metered = list(search._full.admissible_sizes()), 0
        for rung, fraction in enumerate(RUNG_FRACTIONS):
            report = search._run_rung(rung, fraction, arms, GOAL)
            arms, metered = list(report.survivors), metered + report.interval_evals
        assert metered == 30_021_288
        assert sum(elements) <= 0.01 * metered


class TestGoldenCatalogSearch:
    """Every catalog day at seed 7 searched for 2 ms and 0.5 ms answers
    what the search answered before its rungs read prefix sums: best,
    rung reports and effort, by the digest ``make search-golden``
    checks (which also runs seeds 3 and 11)."""

    def test_seed_7_matches_the_recorded_digests(self):
        expected = search_golden.load_fixture()
        actual = search_golden.digests([7])
        assert len(actual) == 22
        assert actual == {key: expected[key] for key in actual}

    def test_seed_7_matches_them_with_every_step_on_the_exact_path(
        self, monkeypatch
    ):
        """With ``_certify`` deciding nothing, every rung step sums its
        sample as the pass does (``_meets``) and the answers stay put."""
        exact = []
        real_meets = ScrubParameterOptimizer._meets

        def meets(self, threshold, service, goal):
            exact.append(threshold)
            return real_meets(self, threshold, service, goal)

        monkeypatch.setattr(optimizer_module, "_certify", search_golden.undecided)
        monkeypatch.setattr(ScrubParameterOptimizer, "_meets", meets)
        expected = search_golden.load_fixture()
        actual = search_golden.digests([7])
        assert len(actual) == 22
        assert actual == {key: expected[key] for key in actual}
        assert len(exact) == 42_428  # every step decision of the 22 searches


class TestSearchDifferential:
    def test_contract_holds_on_seeded_workload(self, workload):
        report = check_search_vs_grid(slowdown_goal=GOAL, **workload)
        assert report["speedup"] >= 5.0
        assert report["grid"].request_bytes == (
            report["search"].best.request_bytes
        )

    def test_violation_is_reported_as_mismatch(self, workload, monkeypatch):
        # Sabotage the schedule the checker builds (four rungs down to
        # 1 arm, each from a 16-interval glance at the sample, no safety
        # margin): the contract must be able to actually fail.
        import repro.core.search as search
        import repro.verify.search as vs

        monkeypatch.setattr(search, "RUNG_FRACTIONS", (1 / 512,) * 4)
        monkeypatch.setattr(search, "MIN_RUNG_SAMPLE", 16)
        monkeypatch.setattr(search, "RUNG_ITERATIONS", 1)

        def sabotaged(*args, **kwargs):
            return SuccessiveHalvingSearch(*args, **kwargs, keep_min=1)

        monkeypatch.setattr(vs, "SuccessiveHalvingSearch", sabotaged)
        for seed in range(5):
            try:
                vs.check_search_vs_grid(
                    slowdown_goal=GOAL, seed=seed, **workload
                )
            except DifferentialMismatch as exc:
                assert exc.axis == "search"
                return
        pytest.skip("sabotaged schedule still found the optimum (5 seeds)")

    def test_runner_path_shares_cache_with_grid(self, workload, tmp_path):
        from repro.parallel import ResultCache, SweepRunner

        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=0, cache=cache)
        ScrubParameterOptimizer(**workload).optimize(GOAL, runner=runner)
        misses_after_grid = cache.misses
        outcome = SuccessiveHalvingSearch(**workload).search(
            GOAL, runner=runner
        )
        # the final rung's tasks are grid tasks: all served from cache
        assert cache.misses == misses_after_grid
        assert cache.hits > 0
        grid = ScrubParameterOptimizer(**workload).optimize(GOAL)
        assert outcome.best.request_bytes == grid.request_bytes
