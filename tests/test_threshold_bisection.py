"""The threshold bisection's shrinking working set and the shared
best-candidate rule (repro.core.optimizer).

``best_threshold`` drops every interval no longer than its rising lower
bound, and a step computes only the mean slowdown it compares; the one
result is built from the last accepted step's arrays.  Those are
optimisations only: every answer must equal, bit for bit, what the
unpruned bisection over the original Waiting arithmetic returns, and
charge the effort meter as that did.  Both live on here as the oracle.
"""

import dataclasses
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.optimizer as optimizer_module
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER, SlowdownResult
from repro.core.optimizer import ScrubParameterOptimizer, _certify, _pick_best
from repro.core.search import (
    MIN_RUNG_SAMPLE, RUNG_FRACTIONS, RUNG_ITERATIONS, SuccessiveHalvingSearch,
)
from repro.disk.models import PRESETS
from repro.parallel import SweepRunner
from repro.traces import generate_trace
from repro.traces.catalog import trace_idle_intervals

#: A cheap linear service model (no drive measurement needed).
SERVICE = ScrubServiceModel([65536, 4 * 1024 * 1024], [0.005, 0.045])
SIZES = [65536, 1 << 20, 4 << 20]


def _reference_pass(
    work, sample_size, threshold, request_bytes, service, total_requests,
    span, label="",
):
    """The fixed-size Waiting arithmetic as it was written first, one
    ``where`` and one ``sum`` at a time, sharing no code with the
    module under test."""
    assert threshold >= 0 and total_requests > 0 and span > 0
    SIM_METER.sims += 1
    SIM_METER.interval_evals += sample_size
    usable = work[work > threshold] - threshold

    complete = np.floor(usable / service)
    partial = usable - complete * service
    in_flight = partial > 0
    delays = np.where(in_flight, service - partial, 0.0)
    requests_done = complete + in_flight  # the in-flight one still finishes
    scrub_bytes = float(requests_done.sum()) * request_bytes

    return SlowdownResult(
        threshold=threshold,
        label=label or f"fixed {request_bytes // 1024}KB",
        collisions=int(np.count_nonzero(delays > 0)),
        total_requests=total_requests,
        mean_slowdown=float(delays.sum()) / total_requests,
        max_slowdown=float(delays.max()) if len(delays) else 0.0,
        scrub_bytes=scrub_bytes,
        throughput=scrub_bytes / span,
    )


def reference_simulate(optimizer, threshold, request_bytes, pass_=_reference_pass):
    """One whole-sample simulation through the reference arithmetic."""
    return pass_(
        optimizer.durations, len(optimizer.durations), threshold,
        request_bytes, float(optimizer.service_model.time(float(request_bytes))),
        optimizer.total_requests, optimizer.span,
    )


def reference_best_threshold(
    optimizer, request_bytes, goal, iterations, pass_=_reference_pass
):
    """The bisection as it was: every step simulates the whole sample."""
    lo, hi = 0.0, float(optimizer.durations.max())
    at_zero = reference_simulate(optimizer, 0.0, request_bytes, pass_)
    if at_zero.mean_slowdown <= goal:
        return at_zero
    best = reference_simulate(optimizer, hi, request_bytes, pass_)
    if best.mean_slowdown > goal:
        return None
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        result = reference_simulate(optimizer, mid, request_bytes, pass_)
        if result.mean_slowdown <= goal:
            hi, best = mid, result
        else:
            lo = mid
    return best


def exact(result):
    """All eight fields with their types (a cached result is pickled),
    floats as their bit patterns."""
    if result is None:
        return None
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in dataclasses.astuple(result)
    )


def metered(call):
    before = SIM_METER.snapshot()
    result = call()
    after = SIM_METER.snapshot()
    return result, {key: after[key] - before[key] for key in before}


def per_size_references(optimizer, sizes, goal, iterations):
    """Each size's unpruned bisection alone, ``exact``, and their
    summed meter charge: what a lockstep call must answer."""
    expected, total = [], {"sims": 0, "interval_evals": 0}
    for size in sizes:
        result, effort = metered(
            lambda: reference_best_threshold(optimizer, size, goal, iterations)
        )
        expected.append(exact(result))
        for key in effort:
            total[key] += effort[key]
    return expected, total


def draw_sample(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "lognormal":
        return rng.lognormal(-4.0, 2.0, size)
    if kind == "pareto":
        return 1e-3 * (1.0 + rng.pareto(1.2, size))
    if kind == "duplicated":  # a handful of distinct values, many copies
        return rng.choice(rng.lognormal(-3.0, 1.5, 5), size)
    if kind == "all_equal":
        return np.full(size, rng.uniform(0.01, 0.2))
    if kind == "midpoints":  # durations equal to the first midpoints, exactly
        top = 8.0
        sample = rng.lognormal(-4.0, 2.0, size).clip(max=top)
        sample[: min(size, 4)] = [top, top / 2, top / 4, 3 * top / 8][:size]
        return sample
    if kind == "lone_max":  # the longest interval is the only usable one
        sample = np.full(size, 1e-9)
        sample[size // 2] = 30.0
        return sample
    raise AssertionError(kind)


KINDS = ("lognormal", "pareto", "duplicated", "all_equal", "midpoints", "lone_max")


class TestBisectionMatchesUnprunedReference:
    @given(
        kind=st.sampled_from(KINDS),
        size=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        goal_exponent=st.floats(-7.0, -1.0),
        request_bytes=st.sampled_from(SIZES),
        iterations=st.sampled_from([1, 7, 20, 40]),
        pass_at_zero=st.booleans(),
        fraction=st.floats(0.0, 1.25),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_result_and_same_metered_effort(
        self, kind, size, seed, goal_exponent, request_bytes, iterations,
        pass_at_zero, fraction,
    ):
        durations = draw_sample(kind, size, seed)
        optimizer = ScrubParameterOptimizer(
            durations, total_requests=size + 1,
            span=float(durations.sum()) + 1.0, service_model=SERVICE,
        )
        goal = 10.0 ** goal_exponent
        expected, expected_effort = metered(
            lambda: reference_best_threshold(
                optimizer, request_bytes, goal, iterations
            )
        )
        at_zero = optimizer.simulate(0.0, request_bytes) if pass_at_zero else None
        actual, effort = metered(
            lambda: optimizer.best_threshold(
                request_bytes, goal, iterations=iterations, at_zero=at_zero
            )
        )
        assert exact(actual) == exact(expected)
        if pass_at_zero:
            effort = {"sims": effort["sims"] + 1,
                      "interval_evals": effort["interval_evals"] + size}
        assert effort == expected_effort
        # One simulation at an arbitrary threshold, up to past the longest.
        threshold = fraction * float(durations.max())
        expected, expected_effort = metered(
            lambda: reference_simulate(optimizer, threshold, request_bytes)
        )
        actual, effort = metered(
            lambda: optimizer.simulate(threshold, request_bytes)
        )
        assert exact(actual) == exact(expected)
        assert effort == expected_effort == {"sims": 1, "interval_evals": size}

    def test_single_interval(self):
        optimizer = ScrubParameterOptimizer(
            [0.2], total_requests=2, span=1.0, service_model=SERVICE
        )
        for goal in (1e-4, 1.0):  # bisected / met at threshold zero
            assert exact(optimizer.best_threshold(1 << 20, goal)) == exact(
                reference_best_threshold(optimizer, 1 << 20, goal, 40)
            )

    def test_goal_met_at_zero_costs_one_simulation(self):
        durations = draw_sample("lognormal", 300, 1)
        optimizer = ScrubParameterOptimizer(
            durations, total_requests=301, span=100.0, service_model=SERVICE
        )
        result, effort = metered(lambda: optimizer.best_threshold(65536, 1.0))
        assert result.threshold == 0.0
        assert effort == {"sims": 1, "interval_evals": 300}

    def test_unattainable_goal_returns_none_like_the_reference(self, monkeypatch):
        # The real arithmetic always meets a goal at the longest
        # interval (nothing is usable there), so reach the branch by
        # making every whole-result simulation one second slower than
        # it is, on both sides.
        def slower(real):
            def pass_(*args, **kwargs):
                result = real(*args, **kwargs)
                return dataclasses.replace(
                    result, mean_slowdown=result.mean_slowdown + 1.0
                )
            return pass_

        monkeypatch.setattr(
            optimizer_module, "fixed_waiting_pass",
            slower(optimizer_module.fixed_waiting_pass),
        )
        durations = draw_sample("pareto", 200, 2)
        optimizer = ScrubParameterOptimizer(
            durations, total_requests=201, span=50.0, service_model=SERVICE
        )
        expected, expected_effort = metered(
            lambda: reference_best_threshold(
                optimizer, 1 << 20, 0.5, 40, pass_=slower(_reference_pass)
            )
        )
        actual, effort = metered(lambda: optimizer.best_threshold(1 << 20, 0.5))
        assert expected is None and actual is None
        assert effort == expected_effort == {"sims": 2, "interval_evals": 400}


class _Watched(np.ndarray):
    """An idle sample that logs every threshold mask taken over it, or
    over an array indexed out of it: ``(len(array), threshold, meter
    reading)``.  Every ufunc answers with plain arrays, so only masks
    taken over the sample and the working sets cut from it are seen."""

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.greater and method == "__call__" and inputs[0] is self:
            self.log.append((len(self), inputs[1], SIM_METER.interval_evals))
        plain = [
            x.view(np.ndarray) if isinstance(x, _Watched) else x
            for x in inputs
        ]
        if out is not None:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, _Watched) else x
                for x in out
            )
        return getattr(ufunc, method)(*plain, **kwargs)


class TestPruningIsInEffect:
    def test_working_set_only_shrinks(self, monkeypatch):
        n = 20_000
        durations = np.random.default_rng(11).lognormal(-4.0, 2.0, n)
        optimizer = ScrubParameterOptimizer(
            durations, total_requests=2 * n, span=float(durations.sum()) * 1.5,
            service_model=SERVICE,
        )
        goal = 0.002
        # (len(work), threshold, meter) of every mask the bisection takes
        steps = []
        monkeypatch.setattr(_Watched, "log", steps)
        optimizer.durations = optimizer.durations.view(_Watched)
        before = SIM_METER.interval_evals
        assert optimizer.best_threshold(4 << 20, goal, iterations=40) is not None

        assert len(steps) == 42  # threshold 0, the longest interval, 40 midpoints
        meter = [before] + [reading for _, _, reading in steps]
        # each step is charged the sample before it masks its working set
        assert {b - a for a, b in zip(meter, meter[1:])} == {n}
        assert SIM_METER.interval_evals == before + 42 * n
        lengths = [length for length, _, _ in steps[2:]]
        midpoints = [threshold for _, threshold, _ in steps[2:]]
        # a rejected midpoint becomes lo, so the next one lies above it
        rejected = [b > a for a, b in zip(midpoints, midpoints[1:])]
        assert lengths[0] == n
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
        first = rejected.index(True)
        assert first < 39
        assert all(length < n for length in lengths[first + 1:])
        assert lengths[-1] <= n / 2


def _stub(throughput):
    return SlowdownResult(
        threshold=0.01, label="stub", collisions=0, total_requests=1,
        mean_slowdown=0.001, max_slowdown=0.0, scrub_bytes=0.0,
        throughput=throughput,
    )


class TestOneTieBreakRule:
    """Throughput descending, then size ascending — on every entry point."""

    def test_pick_best(self):
        small, big = 65536, 131072
        tie = [(big, _stub(5.0)), (small, _stub(5.0)), (262144, _stub(4.0))]
        assert _pick_best(0.002, tie).request_bytes == small
        assert _pick_best(0.002, reversed(tie)).request_bytes == small
        best = _pick_best(0.002, [(small, None), (big, _stub(1.0))])
        assert (best.request_bytes, best.throughput) == (big, 1.0)
        assert best.slowdown_goal == 0.002 and best.threshold == 0.01
        with pytest.raises(ValueError, match="no parameters meet slowdown goal"):
            _pick_best(0.002, [(small, None), (big, None)])

    @pytest.fixture()
    def tied(self, monkeypatch):
        """Two sizes whose threshold searches tie at throughput 5.

        The bigger size has the higher threshold-0 ceiling, so the
        serial path explores it first; the smaller size's ceiling
        equals the tie, so only a strict domination test searches it.
        """
        small, big = 65536, 131072
        ceilings = {small: 5.0, big: 6.0}
        monkeypatch.setattr(
            ScrubParameterOptimizer, "simulate",
            lambda self, threshold, request_bytes: _stub(ceilings[request_bytes]),
        )
        monkeypatch.setattr(
            ScrubParameterOptimizer, "best_threshold",
            lambda self, request_bytes, goal, iterations=40, at_zero=None: _stub(5.0),
        )
        return dict(
            durations=np.linspace(0.01, 1.0, 50), total_requests=100, span=60.0,
            service_model=SERVICE, sizes=[big, small],
        )

    def test_all_entry_points_choose_the_smaller_size(self, tied):
        optimizer = ScrubParameterOptimizer(**tied)
        runner = SweepRunner(workers=0)
        chosen = {
            "serial": optimizer.optimize(0.002),
            "grid": optimizer.optimize(0.002, prune=False),
            "runner": optimizer.optimize(0.002, runner=runner),
            "search": SuccessiveHalvingSearch(**tied).search(0.002).best,
            "search+runner": SuccessiveHalvingSearch(**tied)
            .search(0.002, runner=runner).best,
        }
        assert {best.request_bytes for best in chosen.values()} == {65536}
        assert len(set(chosen.values())) == 1
        assert math.isclose(chosen["serial"].throughput, 5.0)


def scores(results):
    """The ``(threshold, throughput)`` a rung reads off each ``exact``
    result, with their types: what :meth:`_rung_scores` must answer."""
    return [(result[0], result[7]) for result in results]


def exact_scores(pairs):
    return [
        tuple((type(value), value.hex()) for value in pair) for pair in pairs
    ]


def rung_scores(optimizer, sizes, goal, iterations):
    return optimizer._rung_scores(
        sizes, goal, iterations, np.sort(optimizer.durations)
    )


class TestLockstepMatchesPerSizeReference:
    """Several sizes bisected in lockstep answer, bit for bit, the
    threshold and throughput each size's unpruned bisection answers
    alone, and charge their sum."""

    def test_every_size_equals_its_reference(self):
        sizes = [k * 65536 for k in range(1, 65)]
        rng = np.random.default_rng(33)
        seen = set()
        for kind in KINDS:
            for seed in range(3):
                n = int(rng.integers(1, 400))
                durations = draw_sample(kind, n, seed)
                optimizer = ScrubParameterOptimizer(
                    durations, total_requests=n + 1,
                    span=float(durations.sum()) + 1.0, service_model=SERVICE,
                )
                top = float(durations.max())
                count = int(rng.integers(5, 21))
                arms = sorted(
                    int(size) for size in rng.choice(sizes, count, replace=False)
                )
                iterations = 40 if seed == 0 else 20
                goals = [1e-7, 1e-5, 1e-4, 1e-3, 1e-2]
                # A goal equal to a slowdown some step computes: a sum
                # one ulp off flips that step's decision.
                references = [
                    reference_best_threshold(optimizer, size, 1e-4, iterations)
                    for size in arms
                ]
                goals += [
                    result.mean_slowdown for result in references
                    if result is not None and 0.0 < result.threshold < top
                ][:3]
                for goal in goals:
                    expected, expected_effort = per_size_references(
                        optimizer, arms, goal, iterations
                    )
                    actual, effort = metered(
                        lambda: rung_scores(optimizer, arms, goal, iterations)
                    )
                    assert exact_scores(actual) == scores(expected)
                    assert effort == expected_effort
                    thresholds = [threshold for threshold, _ in actual]
                    bisected = {t for t in thresholds if 0.0 < t < top}
                    for threshold in thresholds:
                        if threshold == 0.0:
                            seen.add("exits at threshold 0")
                        elif threshold == top:
                            seen.add("never accepts a midpoint")
                    if len(bisected) > 1:
                        seen.add("working sets diverge")
        assert seen == {
            "exits at threshold 0", "never accepts a midpoint",
            "working sets diverge",
        }

    def test_goals_on_the_threshold_zero_boundary(self):
        """A rung decides each arm's threshold-0 pass without building
        it: a goal equal to that pass's mean slowdown sits on the
        ``<=`` boundary (the arm exits at 0) and one ulp below it does
        not."""
        sizes = [k * 65536 for k in range(1, 65)]
        rng = np.random.default_rng(34)
        exits = 0
        for kind in KINDS:
            for seed in range(3):
                n = int(rng.integers(1, 400))
                durations = draw_sample(kind, n, seed)
                optimizer = ScrubParameterOptimizer(
                    durations, total_requests=n + 1,
                    span=float(durations.sum()) + 1.0, service_model=SERVICE,
                )
                arms = sorted(
                    int(size) for size in rng.choice(sizes, 8, replace=False)
                )
                boundaries = sorted({
                    reference_simulate(optimizer, 0.0, size).mean_slowdown
                    for size in arms
                } - {0.0})[:3]
                goals = boundaries + [math.nextafter(b, 0.0) for b in boundaries]
                for goal in goals:
                    expected, expected_effort = per_size_references(
                        optimizer, arms, goal, 20
                    )
                    actual, effort = metered(
                        lambda: rung_scores(optimizer, arms, goal, 20)
                    )
                    assert exact_scores(actual) == scores(expected)
                    assert effort == expected_effort
                    exits += goal in boundaries and any(
                        result[0][1] == (0.0).hex() and result[4][1] == goal.hex()
                        for result in expected
                    )
        assert exits >= 10

    def test_catalog_sized_rung_equals_its_reference(self):
        """Rung 0 of a 600 s ``TPCdisk66`` search, all 64 arms, on the
        drive model the benchmark tunes for: its duration-ordered sample
        is both the rung optimizer's sample and ``ordered``."""
        trace = generate_trace("TPCdisk66", duration=600.0, seed=7)
        _, durations = trace_idle_intervals("TPCdisk66", trace)
        search = SuccessiveHalvingSearch(
            durations, len(trace), trace.duration,
            ScrubServiceModel.from_spec(PRESETS["ultrastar"]()),
        )
        sample = search._rung_sample(0, RUNG_FRACTIONS[0])
        scale = len(sample) / len(durations)
        rung = ScrubParameterOptimizer(
            sample, total_requests=max(1, round(len(trace) * scale)),
            span=trace.duration * scale, service_model=search._full.service_model,
        )
        arms = list(search._full.admissible_sizes())
        assert len(arms) == 64 and len(sample) > MIN_RUNG_SAMPLE
        bisected = 0
        for goal in (0.002, 0.0005):
            expected, expected_effort = per_size_references(
                rung, arms, goal, RUNG_ITERATIONS
            )
            actual, effort = metered(
                lambda: rung._rung_scores(arms, goal, RUNG_ITERATIONS, sample)
            )
            assert exact_scores(actual) == scores(expected)
            assert effort == expected_effort
            bisected += sum(threshold > 0.0 for threshold, _ in actual)
        assert bisected >= 64


def clustered(n, seed):
    """Long intervals packed into 10 ms around 1000 s: near the answer
    a step's bulk is most of the sample, and its formula subtracts
    prefix sums near 10**6 n whose rounding dwarfs the delays' own."""
    return 1000.0 + np.random.default_rng(seed).uniform(0.0, 0.01, n)


def counting_meets(monkeypatch):
    """Record the threshold of every exact-path pass."""
    entries = []
    real_meets = ScrubParameterOptimizer._meets

    def meets(self, threshold, service, goal):
        entries.append(threshold)
        return real_meets(self, threshold, service, goal)

    monkeypatch.setattr(ScrubParameterOptimizer, "_meets", meets)
    return entries


def step_goals(optimizer, sizes, goal, monkeypatch):
    """Each lockstep step's estimate ``F / N`` of the bisection of
    ``sizes`` at ``goal`` (the threshold-0 step and the scoring aside),
    and one ulp either side, for a few of them: goals where a bound too
    tight would decide wrongly."""
    estimates = []
    real_certify = optimizer_module._certify

    def recording(sums, lengths, spread, slowdown_goal, total_requests):
        estimates.append((sums / total_requests).tolist())
        return real_certify(sums, lengths, spread, slowdown_goal, total_requests)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer_module, "_certify", recording)
        rung_scores(optimizer, sizes, goal, 20)
    sums = sorted({value for step in estimates[1:] for value in step} - {0.0})
    boundaries = sums[-3:] + sums[:: max(1, len(sums) // 6)]
    return sorted({
        nudged for goal in boundaries for nudged in (
            goal, math.nextafter(goal, 0.0), math.nextafter(goal, math.inf),
        )
    })


class TestCertifiedLockstepSums:
    """A lockstep step estimates each arm's delay sum from prefix sums
    of the sorted sample and the tail's delays in duration order, not
    from the pass's sum in sample order, and decides on that estimate
    only where its error bound certifies the sample-order decision.
    Goals placed exactly on estimates that steps compute, and one ulp
    either side, are where a bound too tight would decide wrongly;
    there the exact path must run."""

    def test_goals_on_step_sums_take_the_exact_path(self, monkeypatch):
        exact_steps = counting_meets(monkeypatch)
        sizes = [k * 65536 for k in range(1, 65)]
        rng = np.random.default_rng(35)
        for kind in ("lognormal", "pareto", "duplicated", "midpoints"):
            for seed in range(2):
                n = 3000
                durations = draw_sample(kind, n, seed)
                optimizer = ScrubParameterOptimizer(
                    durations, total_requests=n // 4,
                    span=float(durations.sum()) + 1.0, service_model=SERVICE,
                )
                arms = sorted(
                    int(size) for size in rng.choice(sizes, 8, replace=False)
                )
                # The estimates of every step of three arms' bisections
                # at a base goal: the later steps, with their long
                # suffixes, carry the widest rounding differences.
                goals = step_goals(optimizer, arms[::3], 2e-3, monkeypatch)
                for goal in goals:
                    expected, expected_effort = per_size_references(
                        optimizer, arms, goal, 20
                    )
                    actual, effort = metered(
                        lambda: rung_scores(optimizer, arms, goal, 20)
                    )
                    assert exact_scores(actual) == scores(expected)
                    assert effort == expected_effort
        assert len(exact_steps) >= 10

    def test_cancelling_bulk_formulas_take_the_exact_path(self, monkeypatch):
        """On :func:`clustered` samples the prefix sums' rounding, not
        the delays', decides how far an estimate strays: a bound
        without it decides wrongly here."""
        exact_steps = counting_meets(monkeypatch)
        for seed in range(5):
            n = 20_000
            durations = clustered(n, seed)
            optimizer = ScrubParameterOptimizer(
                durations, total_requests=4 * n,
                span=float(durations.sum()), service_model=SERVICE,
            )
            arms = [65536, 1 << 20, 4 << 20]
            goals = step_goals(optimizer, arms, 2e-4, monkeypatch)
            goals += [
                result.mean_slowdown for result in (
                    reference_best_threshold(optimizer, size, 2e-4, 20)
                    for size in arms
                ) if result.mean_slowdown > 0.0
            ]
            for goal in goals:
                expected, expected_effort = per_size_references(
                    optimizer, arms, goal, 20
                )
                actual, effort = metered(
                    lambda: rung_scores(optimizer, arms, goal, 20)
                )
                assert exact_scores(actual) == scores(expected)
                assert effort == expected_effort
        assert len(exact_steps) >= 10

    def test_estimates_lie_within_their_bound(self):
        """``|F - E| <= 4ku|F| + spread`` (``_certify``'s proof), in
        exact rational arithmetic, for every step estimate of samples
        with ties, zeros, heavy tails and cancelling bulks, at
        thresholds on, between and past their intervals."""
        u = Fraction(2) ** -53
        rng = np.random.default_rng(37)
        samples = [
            draw_sample("duplicated", 5000, 1),
            draw_sample("all_equal", 300, 2),
            np.where(rng.random(4000) < 0.3, 0.0, rng.lognormal(-5.0, 1.0, 4000)),
            draw_sample("pareto", 20_000, 3),
            draw_sample("lognormal", 20_000, 4),
            clustered(20_000, 5),
            np.array([0.0]),
        ]
        services = SERVICE.time(np.asarray(SIZES, dtype=float))
        checked = bulky = 0
        for durations in samples:
            ordered = np.sort(durations)
            prefix = np.zeros(len(ordered) + 1)
            np.cumsum(ordered, out=prefix[1:])
            picks = rng.choice(ordered, 40)
            thresholds = np.unique(np.concatenate([
                [0.0, ordered[-1], 2 * ordered[-1]], picks,
                np.nextafter(picks, np.inf), picks - services[0] / 2,
                rng.uniform(0.0, ordered[-1], 40),
            ]).clip(min=0.0))
            for service in services:
                mids = thresholds
                sums, lengths, spread = optimizer_module._estimate(
                    ordered, prefix, mids, np.full(len(mids), service)
                )
                for mid, f, k, bound in zip(
                    mids.tolist(), sums.tolist(), lengths.tolist(), spread.tolist()
                ):
                    usable = durations[durations > mid] - mid
                    assert k == len(usable)
                    complete = np.floor(usable / service)
                    partial = usable - complete * service
                    e = np.add.reduce(np.where(partial > 0, service - partial, 0.0))
                    gap = abs(Fraction(f) - Fraction(float(e)))
                    assert gap <= 4 * k * u * abs(Fraction(f)) + Fraction(bound)
                    checked += 1
                    bulky += gap > 4 * k * u * abs(Fraction(f))
        assert checked > 1000 and bulky > 0

    def test_certificate_holds_for_every_sum_its_bound_allows(self):
        """``_certify`` accepts only where the pass's own division meets
        the goal and rejects only where it misses, for any estimate
        ``F`` within ``4ku|F| + spread`` of the pass's sum ``E`` (the
        docstring's bound), with ``E`` placed all around ``goal * N``,
        ``k`` from 1 to 10**7 and spreads from 0 to far past the gap."""
        u = 2.0 ** -53
        rng = np.random.default_rng(36)
        decided = 0
        for k in (1, 3, 100, 10_000, 10**7):
            for total in (1, 7, 1000, 123_457):
                for goal in 10.0 ** rng.uniform(-7.0, -1.0, 4):
                    width = 16.0 * k * u + 32.0 * u
                    sums = goal * total * (1.0 + np.linspace(-width, width, 401))
                    lengths = np.full(len(sums), k)
                    for scale in (0.0, 4.0 * u, 8.0 * k * u, 1e-6):
                        spread = np.full(len(sums), goal * total * scale)
                        # The farthest the bound lets F stray from E,
                        # less a little for the float arithmetic here.
                        reach = 0.5 * (4.0 * k * u * sums + spread) / (
                            1.0 + 4.0 * k * u
                        )
                        for drift in (-1.0, -1 / 3, 0.0, 1 / 3, 1.0):
                            fast = sums + drift * reach
                            accept, reject = _certify(
                                fast, lengths, spread, goal, total
                            )
                            met = sums / total <= goal
                            assert not (accept & ~met).any()
                            assert not (reject & met).any()
                            decided += int(accept.sum() + reject.sum())
        assert decided > 0.4 * 5 * 4 * 4 * 4 * 5 * 401
        zeros = np.zeros(3)
        nothing = _certify(zeros, np.full(3, 5), zeros, 1e-310, 10)
        assert not nothing[0].any() and not nothing[1].any()
