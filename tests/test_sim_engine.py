"""Tests for the discrete-event engine (repro.sim.engine)."""

import gc
from contextlib import contextmanager

import pytest

from repro.sim import KERNELS, Event, Simulation, Timeout, make_simulation
from repro.sim.engine import EmptySchedule


def test_clock_starts_at_zero():
    assert Simulation().now == 0.0


def test_clock_custom_start():
    assert Simulation(start=100.0).now == 100.0


def test_run_empty_returns_immediately():
    sim = Simulation()
    sim.run()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulation()
    sim.timeout(7.5)
    sim.run()
    assert sim.now == 7.5


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_run_until_time_stops_clock():
    sim = Simulation()
    sim.timeout(10)
    sim.run(until=4)
    assert sim.now == 4.0


def test_run_until_past_raises():
    sim = Simulation(start=10)
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_run_until_event_returns_value():
    sim = Simulation()

    def proc(sim):
        yield sim.timeout(2)
        return "finished"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "finished"
    assert sim.now == 2.0


def test_run_until_already_processed_event():
    sim = Simulation()
    t = sim.timeout(1, value="x")
    sim.run()
    assert sim.run(until=t) == "x"


def test_run_until_unreachable_event_raises():
    sim = Simulation()
    never = sim.event()
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=never)


def test_events_fire_in_time_order():
    sim = Simulation()
    order = []
    for delay in (5, 1, 3):
        sim.timeout(delay).callbacks.append(
            lambda ev, d=delay: order.append(d)
        )
    sim.run()
    assert order == [1, 3, 5]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulation()
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(1).callbacks.append(lambda ev, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_queue_raises():
    sim = Simulation()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulation()
    assert sim.peek() == float("inf")
    sim.timeout(3)
    sim.timeout(1)
    assert sim.peek() == 1.0


def test_event_succeed_carries_value():
    sim = Simulation()
    ev = sim.event()
    ev.succeed(123)
    sim.run()
    assert ev.ok and ev.value == 123


def test_event_double_trigger_rejected():
    sim = Simulation()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_requires_exception():
    sim = Simulation()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_failed_event_propagates():
    sim = Simulation()
    sim.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_pending_event_value_access_raises():
    sim = Simulation()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_two_simulations_are_independent():
    a, b = Simulation(), Simulation()
    a.timeout(5)
    b.timeout(2)
    a.run()
    b.run()
    assert (a.now, b.now) == (5.0, 2.0)


def test_anyof_fires_on_first():
    sim = Simulation()
    results = {}

    def proc(sim):
        slow, fast = sim.timeout(5, "slow"), sim.timeout(2, "fast")
        results["got"] = yield slow | fast

    sim.process(proc(sim))
    sim.run()
    assert list(results["got"].values()) == ["fast"]


def test_allof_waits_for_all():
    sim = Simulation()
    results = {}

    def proc(sim):
        slow, fast = sim.timeout(5, "slow"), sim.timeout(2, "fast")
        results["got"] = yield slow & fast

    sim.process(proc(sim))
    sim.run()
    assert sorted(results["got"].values()) == ["fast", "slow"]
    assert sim.now == 5.0


def test_condition_rejects_foreign_events():
    a, b = Simulation(), Simulation()
    with pytest.raises(ValueError):
        _ = Timeout(a, 1) | Timeout(b, 1)


def test_condition_with_already_processed_event():
    sim = Simulation()
    t = sim.timeout(1, "early")
    sim.run()

    def proc(sim):
        result = yield t | sim.timeout(10, "late")
        return list(result.values())

    p = sim.process(proc(sim))
    assert sim.run(until=p) == ["early"]
    assert sim.now == 1.0  # fired instantly, no extra waiting


def test_condition_failure_propagates():
    sim = Simulation()
    seen = {}

    def proc(sim):
        bad = sim.event()
        bad.fail(RuntimeError("inner"))
        try:
            yield bad & sim.timeout(5)
        except RuntimeError as exc:
            seen["exc"] = str(exc)

    sim.process(proc(sim))
    sim.run()
    assert seen["exc"] == "inner"


def test_event_repr_shows_state():
    sim = Simulation()
    ev = sim.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    sim.run()
    assert "processed" in repr(ev)


# -- what is processed is acyclic; close() releases what is pending ----------


@contextmanager
def _collector_off():
    """Tracked-object counts that only reference counting can lower."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kernel", KERNELS)
def test_finished_processes_do_not_pile_up_inside_one_run(kernel):
    # 10 000 short-lived processes inside one gc-paused run(): each is
    # freed when it finishes, not when the run ends.
    sim = make_simulation(kernel)
    tracked = []

    def worker(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    def spawner(sim):
        for _ in range(101):
            for _ in range(100):
                sim.process(worker(sim))
            yield sim.timeout(3.0)
            tracked.append(len(gc.get_objects()))

    with _collector_off():
        sim.process(spawner(sim))
        sim.run()
    assert len(tracked) == 101
    assert tracked[-1] - tracked[0] <= 16


def test_a_fired_condition_lets_go_of_its_constituents():
    sim = Simulation()
    quiet = sim.event()  # never fires: it keeps the condition's callback
    with _collector_off():
        before = len(gc.get_objects())
        for _ in range(100):
            condition = sim.timeout(1.0) | quiet
            sim.run(until=condition)
            assert condition.events == ()
        del condition
        quiet._detach()
        assert len(gc.get_objects()) - before <= 16


@pytest.mark.parametrize("kernel", KERNELS)
def test_close_releases_what_is_pending(kernel):
    closed = []

    def waiter(sim, wakeup):
        try:
            while True:
                yield sim.timeout(0.25) | wakeup
        finally:
            closed.append(sim.now)

    def build():
        sim = make_simulation(kernel)
        processes = [sim.process(waiter(sim, sim.event())) for _ in range(50)]
        sim.run(until=10.1)  # leaves the pooled marker and 50 live waits
        return sim, processes

    sim, processes = build()  # warm-up: first-use caches
    sim.close(processes)
    del sim, processes
    with _collector_off():
        before = len(gc.get_objects())
        sim, processes = build()
        sim.close(processes)
        assert sim.now == 10.1 and sim._seq > 0
        assert sim.peek() == float("inf") and sim._pending() == 0
        assert not any(process.triggered for process in processes)
        del sim, processes
        assert len(gc.get_objects()) - before <= 16
    assert closed == [10.1] * 100  # every generator's finally ran


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_closed_simulation_refuses_to_run(kernel):
    sim = make_simulation(kernel)
    sim.timeout(1.0)
    sim.close()
    with pytest.raises(RuntimeError, match="closed"):
        sim.run(until=2.0)
    with pytest.raises(RuntimeError, match="closed"):
        sim.run()
    with pytest.raises(RuntimeError, match="closed"):
        sim.timeout(1.0)
    assert sim.now == 0.0
    sim.close()  # idempotent
