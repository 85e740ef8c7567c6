"""Adaptive request sizing through one ramp table
(repro.analysis.slowdown.simulate_adaptive_waiting).

Every idle interval fires the same schedule of requests from its
start, so the simulator builds that ramp once and reads each interval
off it with a ``searchsorted``.  That is an optimisation only: every
result must equal, bit for bit, what the request-by-request walk it
replaced returns, and charge the effort meter as that did.  The walk
lives on here, verbatim, as the oracle.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.analysis.slowdown as slowdown_module
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import (
    SIM_METER,
    SlowdownResult,
    _result,
    _validate,
    simulate_adaptive_waiting,
    simulate_fixed_waiting,
)
from repro.core.adaptive import (
    ExponentialSchedule,
    FixedSchedule,
    LinearSchedule,
    SizeSchedule,
    SwappingSchedule,
)
from repro.disk.models import PRESETS
from repro.traces import generate_trace
from repro.traces.catalog import trace_idle_intervals
from tests.test_threshold_bisection import (
    KINDS,
    SERVICE,
    draw_sample,
    exact,
    metered,
)

CAP = 4 * 1024 * 1024


def _reference_adaptive(
    durations: np.ndarray,
    threshold: float,
    schedule: SizeSchedule,
    service_model: ScrubServiceModel,
    total_requests: int,
    span: float,
    label: str = "",
) -> SlowdownResult:
    """Per-interval simulation for adaptive size schedules.

    Sizes grow per the schedule until they reach its cap; once capped,
    the remainder of the interval is handled in closed form, so even
    hour-long intervals cost a handful of iterations.
    """
    durations = np.asarray(durations, dtype=float)
    _validate(threshold, total_requests, span)
    if not isinstance(schedule, FixedSchedule):
        SIM_METER.sims += 1
        SIM_METER.interval_evals += len(durations)
    if isinstance(schedule, FixedSchedule):
        return simulate_fixed_waiting(
            durations, threshold, schedule.size, service_model,
            total_requests, span, label=label or schedule.name,
        )

    cap = schedule.max_size
    cap_service = float(service_model.time(float(cap)))
    delays = []
    scrub_bytes = 0.0
    for duration in durations:
        usable = duration - threshold
        if usable <= 0:
            continue
        elapsed = 0.0
        index = 0
        delay = None
        while True:
            size = schedule.size_at(index, elapsed)
            if size >= cap:
                # Steady state: finish the interval arithmetically.
                remaining = usable - elapsed
                complete = int(remaining // cap_service)
                partial = remaining - complete * cap_service
                scrub_bytes += complete * cap
                if partial > 0:
                    delay = cap_service - partial
                    scrub_bytes += cap
                else:
                    delay = 0.0
                break
            service = float(service_model.time(float(size)))
            if elapsed + service >= usable:
                delay = elapsed + service - usable
                scrub_bytes += size  # in-flight request completes
                break
            elapsed += service
            scrub_bytes += size
            index += 1
        delays.append(delay)

    return _result(
        threshold,
        label or schedule.name,
        np.asarray(delays, dtype=float),
        scrub_bytes,
        total_requests,
        span,
    )


def assert_matches_reference(durations, threshold, schedule, model, total, span):
    args = (durations, threshold, schedule, model, total, span)
    expected, expected_effort = metered(lambda: _reference_adaptive(*args))
    actual, effort = metered(lambda: simulate_adaptive_waiting(*args))
    assert exact(actual) == exact(expected)
    assert effort == expected_effort
    return actual


@st.composite
def schedules(draw):
    start = draw(st.sampled_from([512, 65536, 1 << 20, CAP]))
    kind = draw(st.sampled_from(["exponential", "linear", "swapping", "fixed"]))
    if kind == "swapping":
        switch = draw(st.sampled_from([0.0, 0.003, 0.02, 1.0, float("inf")]))
        return SwappingSchedule(start, CAP, switch)
    if kind == "fixed":
        return FixedSchedule(start)
    start = min(start, CAP // 2)
    if kind == "exponential":
        return ExponentialSchedule(start, draw(st.floats(1.05, 4.0)), CAP)
    factor = draw(st.sampled_from([1.0, 1.5, 2.0]))
    increment = draw(st.sampled_from([0, 512, 65536]))
    if factor == 1.0 and increment < 65536:
        increment = 65536
    return LinearSchedule(start, factor, increment, CAP)


class TestRampMatchesTheWalk:
    @given(
        kind=st.sampled_from(KINDS),
        size=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
        schedule=schedules(),
        fraction=st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.25]),
    )
    @settings(max_examples=250, deadline=None)
    def test_drawn_samples_schedules_and_thresholds(
        self, kind, size, seed, schedule, fraction
    ):
        durations = draw_sample(kind, size, seed)
        # Thresholds from 0 to past the longest interval, one exactly at it.
        threshold = fraction * float(durations.max())
        assert_matches_reference(
            durations, threshold, schedule, SERVICE, size + 1,
            float(durations.sum()) + 1.0,
        )

    def test_a_request_that_ends_exactly_at_the_interval_end(self):
        # Usable times equal to ramp end times and to whole cap requests:
        # the ``>=`` and ``partial > 0`` boundaries of the walk.
        service = float(SERVICE.time(65536.0))
        cap_service = float(SERVICE.time(float(CAP)))
        durations = np.array([
            service, 2 * service, service + service + service,
            service + 3 * cap_service, 0.5 * service, 7.0,
        ])
        for schedule in (
            SwappingSchedule(65536, CAP, 2 * service),
            SwappingSchedule(65536, CAP, float("inf")),
            ExponentialSchedule(65536, 4.0, CAP),
        ):
            assert_matches_reference(durations, 0.0, schedule, SERVICE, 7, 10.0)
        # Capped from the first request: usable times whose quotient by
        # the cap's service time rounds up to a whole number, where
        # ``//`` and ``floor(a / b)`` disagree.
        tricky = [
            x for x in (k * cap_service for k in range(1, 200))
            if x // cap_service != np.floor(x / cap_service)
        ]
        assert tricky
        assert_matches_reference(
            np.array(tricky), 0.0, SwappingSchedule(CAP, CAP, 1.0), SERVICE,
            len(tricky) + 1, 10.0,
        )

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_any_chunking_of_a_constant_stretch(self, monkeypatch, chunk):
        # A constant stretch is added a chunk at a time; where the
        # chunks break must not show in any bit.
        monkeypatch.setattr(slowdown_module, "_RAMP_CHUNK", chunk)
        durations = draw_sample("lognormal", 60, 5)
        for switch in (0.003, 0.05, float("inf")):
            assert_matches_reference(
                durations, 0.001, SwappingSchedule(65536, CAP, switch),
                SERVICE, 61, 100.0,
            )

    def test_no_usable_interval(self):
        durations = np.array([0.1, 0.2])
        result = assert_matches_reference(
            durations, 0.2, SwappingSchedule(65536, CAP, 1.0), SERVICE, 3, 1.0
        )
        assert result.scrub_bytes == 0.0 and result.collisions == 0


@pytest.fixture(scope="module")
def catalog_day():
    trace = generate_trace("MSRusr2", duration=600.0, seed=7)
    _, durations = trace_idle_intervals("MSRusr2", trace)
    model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
    return durations, model, len(trace), trace.duration


#: Swapping at four switch times, exponential and two linear schedules.
GRID_SCHEDULES = [
    SwappingSchedule(1 << 20, CAP, switch)
    for switch in (0.01, 0.2, 1.0, float("inf"))
] + [
    ExponentialSchedule(65536, 2.0, CAP),
    LinearSchedule(65536, 2.0, 65536, CAP),
    LinearSchedule(65536, 1.0, 65536, CAP),
]


class TestFixedGrid:
    """28 fixed cases on a catalog trace: seven schedules at four
    thresholds from 0 to 2.048 s."""

    @pytest.mark.parametrize("schedule", GRID_SCHEDULES, ids=repr)
    @pytest.mark.parametrize("threshold", [0.0, 0.032, 0.512, 2.048])
    def test_equals_the_walk(self, catalog_day, schedule, threshold):
        durations, model, total, span = catalog_day
        result = assert_matches_reference(
            durations, threshold, schedule, model, total, span
        )
        assert result.scrub_bytes > 0
