"""Tests for the vector batch-advance kernel (repro.sim.vector)."""

import numpy as np
import pytest

from repro.sim import (
    KERNELS,
    ReusableTimeout,
    Simulation,
    UnsupportedKernelFeature,
    VectorSimulation,
    make_simulation,
)
from repro.obs.sink import TelemetrySink


class CountingSink(TelemetrySink):
    def __init__(self):
        self.events = 0
        self.runs = 0
        self.final_now = None

    def engine_run(self, events, now, wall_seconds):
        self.events += events
        self.runs += 1
        self.final_now = now


class TestMakeSimulation:
    def test_dispatch(self):
        assert type(make_simulation("reference")) is Simulation
        assert type(make_simulation("vector")) is VectorSimulation

    def test_kernel_attribute(self):
        assert Simulation.kernel == "reference"
        assert VectorSimulation.kernel == "vector"
        assert KERNELS == ("reference", "vector")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            make_simulation("turbo")

    def test_start_and_telemetry_forwarded(self):
        sink = CountingSink()
        sim = make_simulation("vector", start=5.0, telemetry=sink)
        assert sim.now == 5.0
        assert sim.telemetry is sink


def _program(sim, log):
    """A process exercising timeouts, values and nested spawns."""

    def child(sim):
        yield sim.timeout(0.5)
        log.append(("child", sim.now))

    def main(sim):
        yield sim.timeout(1.0)
        log.append(("a", sim.now))
        sim.process(child(sim))
        value = yield sim.timeout(0.25, value="payload")
        log.append((value, sim.now))
        yield sim.timeout(2.0)
        log.append(("b", sim.now))

    return main


class TestParity:
    def test_process_program_parity(self):
        outcomes = {}
        for kernel in KERNELS:
            sim = make_simulation(kernel)
            log = []
            sim.process(_program(sim, log)(sim))
            sim.run()
            outcomes[kernel] = (log, sim.now, sim._seq)
        assert outcomes["reference"] == outcomes["vector"]

    def test_sink_event_count_parity(self):
        counts = {}
        for kernel in KERNELS:
            sink = CountingSink()
            sim = make_simulation(kernel, telemetry=sink)
            log = []
            sim.process(_program(sim, log)(sim))
            sim.run()
            counts[kernel] = (sink.events, sink.final_now)
        assert counts["reference"] == counts["vector"]

    def test_batched_timers_count_like_individual_ones(self):
        individual = CountingSink()
        sim = make_simulation("vector", telemetry=individual)
        for i in range(40):
            sim.timeout(float(i % 7) + 0.5)
        sim.run()

        batched = CountingSink()
        sim = make_simulation("vector", telemetry=batched)
        sim.schedule_timers((np.arange(40) % 7) + 0.5)
        sim.run()

        assert individual.events == batched.events
        assert individual.final_now == batched.final_now


class TestScheduleTimers:
    def test_consumes_one_seq_per_timer(self):
        sim = make_simulation("vector")
        before = sim._seq
        assert sim.schedule_timers([1.0, 2.0, 3.0]) == 3
        assert sim._seq == before + 3

    def test_empty_batch_is_a_noop(self):
        sim = make_simulation("vector")
        before = sim._seq
        assert sim.schedule_timers([]) == 0
        assert sim._seq == before

    def test_negative_delay_rejected(self):
        sim = make_simulation("vector")
        with pytest.raises(ValueError, match="negative timeout delay"):
            sim.schedule_timers([1.0, -0.5])

    def test_non_1d_rejected(self):
        sim = make_simulation("vector")
        with pytest.raises(ValueError, match="must be 1-D"):
            sim.schedule_timers([[1.0, 2.0]])

    def test_timers_interleave_with_heap_events(self):
        sim = make_simulation("vector")
        log = []

        def proc(sim):
            yield sim.timeout(1.5)
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc(sim))
        sim.schedule_timers([1.0, 2.0, 4.0])
        sim.run()
        # The process resumed between the pure timers, at its own times.
        assert log == [1.5, 3.5]
        assert sim.now == 4.0


class TestProxy:
    """White-box checks of the store's proxy heap entry."""

    def test_proxy_is_keyed_at_the_store_head_and_takes_no_seq(self):
        sim = make_simulation("vector")
        sim.schedule_timers([3.0, 1.0, 2.0])
        assert sim._seq == 3
        assert sim._queue == [(1.0, 2, sim._proxy)]
        assert sim._pending() == 3

    def test_earlier_batch_arms_a_second_proxy(self):
        sim = make_simulation("vector")
        sim.schedule_timers([5.0])
        sim.schedule_timers([6.0])  # head unchanged: no new proxy
        assert sim._proxies == 1
        sim.schedule_timers([2.0])  # precedes the armed head
        assert sim._proxies == 2
        assert sorted(e[:2] for e in sim._queue) == [(2.0, 3), (5.0, 1)]
        assert sim._pending() == 3
        sim.run()
        assert (sim.now, sim._proxies, sim._queue, sim._pending()) == (6.0, 0, [], 0)

    def test_every_heap_proxy_points_at_a_pending_timer(self):
        sim = make_simulation("vector")
        seen = []

        def check(_event):
            pending = set(
                zip(sim._bt[sim._bcur:].tolist(), sim._bk[sim._bcur:].tolist())
            )
            proxies = [e[:2] for e in sim._queue if e[2] is sim._proxy]
            assert len(proxies) == sim._proxies
            assert set(proxies) <= pending
            # The store head is always armed while user code runs.
            assert min(pending) in proxies
            seen.append(sim.now)

        sim.schedule_timers([5.0, 7.0, 9.0])
        sim.timeout(1.0).callbacks.append(
            lambda ev: (sim.schedule_timers([1.0, 4.0]), check(ev))
        )
        sim.timeout(3.0).callbacks.append(check)
        sim.timeout(5.0).callbacks.append(check)
        sim.timeout(8.0).callbacks.append(check)
        sim.run()
        assert seen == [1.0, 3.0, 5.0, 8.0]
        assert sim.now == 9.0

    def test_run_is_the_inherited_loop(self):
        for name in ("run", "peek"):
            assert getattr(VectorSimulation, name) is getattr(Simulation, name)
        assert not hasattr(VectorSimulation, "_drain")


class TestEngineApi:
    def test_peek_spans_all_stores(self):
        sim = make_simulation("vector")
        assert sim.peek() == float("inf")
        sim.timeout(3.0)  # heap
        assert sim.peek() == 3.0
        sim.schedule_timers([2.0])  # store, seen through its proxy
        assert sim.peek() == 2.0
        sim.schedule_timers([4.0, 1.0])  # a later batch with an earlier head
        assert sim.peek() == 1.0
        sim.run(until=1.5)
        assert sim.peek() == 2.0

    def test_step_refused(self):
        sim = make_simulation("vector")
        sim.timeout(1.0)
        with pytest.raises(UnsupportedKernelFeature, match="batches"):
            sim.step()

    def test_run_until_event_returns_value(self):
        sim = make_simulation("vector")

        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(proc(sim))
        assert sim.run(until=process) == "done"

    def test_run_until_number_stops_at_deadline(self):
        sim = make_simulation("vector")
        sim.schedule_timers(np.full(10, 5.0))
        sim.run(until=2.5)
        assert sim.now == 2.5
        sim.run()
        assert sim.now == 5.0

    def test_run_until_past_rejected(self):
        sim = make_simulation("vector", start=2.0)
        with pytest.raises(ValueError, match="lies in the past"):
            sim.run(until=1.0)

    def test_run_out_of_events_with_unfired_until(self):
        sim = make_simulation("vector")

        def forever(sim):
            yield sim.event()  # never triggered

        process = sim.process(forever(sim))
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(until=process)


class TestReusableTimeout:
    def test_arm_matches_fresh_timeout(self):
        fresh = make_simulation("reference")
        log_fresh = []

        def sleeper_fresh(sim):
            for _ in range(5):
                yield sim.timeout(1.25)
                log_fresh.append(sim.now)

        fresh.process(sleeper_fresh(fresh))
        fresh.run()

        pooled = make_simulation("reference")
        log_pooled = []

        def sleeper_pooled(sim):
            timer = ReusableTimeout(sim)
            for _ in range(5):
                yield timer.arm(1.25)
                log_pooled.append(sim.now)

        pooled.process(sleeper_pooled(pooled))
        pooled.run()

        assert log_fresh == log_pooled
        assert fresh._seq == pooled._seq

    def test_born_processed(self):
        sim = make_simulation("reference")
        timer = ReusableTimeout(sim)
        assert timer.processed

    def test_negative_delay_rejected(self):
        sim = make_simulation("reference")
        timer = ReusableTimeout(sim)
        with pytest.raises(ValueError):
            timer.arm(-1.0)


class TestUntilMarkerPool:
    def test_marker_reused_across_runs(self):
        sim = make_simulation("reference")
        sim.timeout(10.0)
        sim.run(until=1.0)
        first = sim._marker
        sim.run(until=2.0)
        assert sim._marker is first

    def test_unfired_marker_not_reused(self):
        from repro.sim import StopSimulation

        sim = make_simulation("reference")

        def stopper(sim):
            yield sim.timeout(1.0)
            raise StopSimulation(None)

        # The aborted run leaves its deadline marker un-fired in the
        # heap; reusing that object would fire _PROCESSED as a callback.
        sim.process(stopper(sim))
        sim.run(until=5.0)
        assert sim.now == 1.0
        stale = sim._marker
        sim.run(until=6.0)
        assert sim._marker is not stale
