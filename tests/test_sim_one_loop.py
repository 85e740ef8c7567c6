"""One event loop, two mechanisms that keep it honest.

* Telemetry counts events by difference (sequence numbers consumed
  minus growth of the pending set).  The ground truth is the number of
  ``step()`` calls that drain the same scenario on the reference kernel.
* The vector kernel's timer store hides behind a proxy heap entry.  The
  ground truth is a reference :class:`Simulation` issuing one
  ``sim.timeout(d)`` per stored delay.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.sim import KERNELS, Event, Simulation, StopSimulation, make_simulation
from repro.obs.sink import Recorder, TelemetrySink


# -- (a) events counted by difference ----------------------------------------


def _timeouts(sim):
    for delay in (3.0, 1.0, 1.0, 2.5):
        sim.timeout(delay)
    return [None]


def _processes(sim):
    def child(sim):
        yield sim.timeout(0.5)

    def parent(sim):
        yield sim.timeout(1.0)
        yield sim.process(child(sim))
        yield sim.timeout(1.0)

    sim.process(parent(sim))
    sim.process(child(sim))
    return [None]


def _anyof_losers(sim):
    def racer(sim):
        # The 5.0 loser stays in the heap and pops as a no-op.
        yield sim.timeout(1.0) | sim.timeout(5.0)
        yield sim.timeout(0.5)

    sim.process(racer(sim))
    return [None]


def _interrupted(sim):
    def victim(sim):
        try:
            yield sim.timeout(10.0)  # detached by the interrupt
        except Exception:
            yield sim.timeout(1.0)

    def interrupter(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("wake")

    sim.process(interrupter(sim, sim.process(victim(sim))))
    return [None]


def _until_number_hit_then_resumed(sim):
    for delay in (1.0, 2.0, 4.5, 4.5, 7.0):
        sim.timeout(delay)
    return [4.5, None]


def _until_number_not_hit(sim):
    def failing(sim):
        yield sim.timeout(2.0)
        raise KeyError("boom")

    sim.process(failing(sim))
    sim.timeout(3.0)
    # The exception escapes before the deadline: the marker stays
    # pending and the second run drains it with everything else.
    return [5.0, None]


def _until_event(sim):
    def worker(sim):
        yield sim.timeout(2.0)
        return "done"

    sim.timeout(1.0)
    sim.timeout(9.0)
    return [sim.process(worker(sim)), None]


def _escaping_exception(sim):
    def failing(sim):
        yield sim.timeout(1.0)
        raise KeyError("boom")

    sim.timeout(0.5)
    sim.timeout(4.0)
    sim.process(failing(sim))
    return [None, None]


SCENARIOS = [
    _timeouts,
    _processes,
    _anyof_losers,
    _interrupted,
    _until_number_hit_then_resumed,
    _until_number_not_hit,
    _until_event,
    _escaping_exception,
]


def _steps_to_drain(sim, until):
    """``run(until)`` spelled with ``step()``; returns the step count."""
    if isinstance(until, Event):
        until.callbacks.append(StopSimulation.callback)
    elif until is not None:
        sim._until_marker(float(until))
    steps = 0
    try:
        while sim._queue:
            steps += 1
            sim.step()
    except (StopSimulation, KeyError):
        pass
    return steps


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__.strip("_"))
def test_recorded_event_count_equals_step_count(scenario, kernel):
    stepped = Simulation()
    expected = [_steps_to_drain(stepped, until) for until in scenario(stepped)]
    assert all(expected)

    recorder = Recorder()
    sim = make_simulation(kernel, telemetry=recorder)
    counter = recorder.metrics.counter("engine.events")
    counted = []
    for until in scenario(sim):
        before = counter.value
        try:
            sim.run(until=until)
        except KeyError:
            pass
        counted.append(counter.value - before)
    assert counted == expected
    assert (sim.now, sim._seq) == (stepped.now, stepped._seq)


# -- (b) the timer store behind its proxy -------------------------------------


class _RunLog(TelemetrySink):
    def __init__(self):
        self.runs = []

    def engine_run(self, events, now, wall_seconds):
        self.runs.append((events, now))


def _play(kernel, program, untils):
    """Run ``program`` and return everything an observer could compare.

    ``program`` is a list of ops: ``("batch", delays)`` schedules pure
    timers (``schedule_timers`` on the vector kernel, one ``timeout``
    per delay on the reference), ``("real", delay, ops)`` schedules a
    timeout whose callback logs and then applies ``ops`` from inside
    the running loop.  ``untils`` are deadlines relative to the clock
    each ``run()`` starts from (``None`` = drain); a final drain is
    always appended.
    """
    sink = _RunLog()
    sim = make_simulation(kernel, telemetry=sink)
    log = []
    labels = iter(range(10**6))

    def apply(ops):
        for op in ops:
            if op[0] == "batch":
                if kernel == "vector":
                    sim.schedule_timers(op[1])
                else:
                    for delay in op[1]:
                        sim.timeout(delay)
            else:
                label = next(labels)
                sim.timeout(op[1]).callbacks.append(
                    lambda _ev, label=label, ops=op[2]: (
                        log.append((sim.now, label, sim._pending())),
                        apply(ops),
                    )
                )

    apply(program)
    states = []
    for until in list(untils) + [None]:
        sim.run(until=None if until is None else sim.now + until)
        states.append((sim.now, sim._seq, sim.peek(), sim._pending()))
    return log, states, sink.runs


GRID = st.integers(0, 12).map(lambda i: i * 0.5)
BATCH = st.tuples(st.just("batch"), st.lists(GRID, max_size=8))
OPS = st.recursive(
    BATCH,
    lambda inner: BATCH | st.tuples(st.just("real"), GRID, st.lists(inner, max_size=4)),
    max_leaves=12,
)


@given(
    program=st.lists(OPS, min_size=1, max_size=8),
    untils=st.lists(st.none() | GRID, max_size=2),
)
@settings(max_examples=400, derandomize=True, deadline=None)
# A callback mid-run schedules a batch whose head precedes the armed one.
@example(program=[("batch", [5.0, 6.0]), ("real", 1.0, [("batch", [0.5, 7.0])])], untils=[])
# Same-time ties on both sides of the key order.
@example(
    program=[("real", 2.0, []), ("batch", [2.0, 2.0, 1.0]), ("real", 2.0, [("batch", [0.0])])],
    untils=[],
)
# A timer due exactly at the deadline: the urgent marker wins; resumed.
@example(program=[("batch", [1.0, 3.0, 3.0, 4.0]), ("real", 3.0, [])], untils=[3.0, 0.0])
def test_timer_store_is_indistinguishable_from_timeouts(program, untils):
    assert _play("vector", program, untils) == _play("reference", program, untils)


def test_timer_at_the_deadline_stays_pending():
    sim = make_simulation("vector")
    sim.schedule_timers([1.0, 3.0, 3.0, 4.0])
    sim.run(until=3.0)
    assert (sim.now, sim.peek(), sim._pending()) == (3.0, 3.0, 3)
    sim.run()
    assert (sim.now, sim._pending()) == (4.0, 0)
