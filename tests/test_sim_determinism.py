"""Event-ordering regression tests for the reworked simulation kernel.

The PR-1 kernel fast paths (``__slots__``, lazy callback storage, the
combined queue key, the inlined run loop, the interrupt-gated resume
path) must not change *what* the kernel computes: events fire in
``(time, priority, sequence)`` order, simultaneous events fire in
scheduling order, and interrupts beat same-time normal events.

Two lines of defence:

* golden comparison — a scenario exercising timeouts, callbacks,
  processes, interrupts, and ``AnyOf``/``AllOf`` runs on both the
  frozen seed kernel (``tests/legacy_kernel.py``) and the current
  kernel; the full ``(time, label)`` logs must match exactly;
* direct ordering assertions on the current kernel, reusing the
  scenario shapes from ``tests/test_sim_engine.py``.
"""

import pytest

import repro.sim as current_kernel
from repro.sim import AllOf, AnyOf, Interrupt, Simulation

from . import legacy_kernel


def run_scenario(kernel):
    """A mixed workload returning its complete (time, label) event log."""
    log = []
    sim = kernel.Simulation()

    def worker(sim, name, delays):
        for delay in delays:
            yield sim.timeout(delay)
            log.append((sim.now, f"{name}-tick"))
        return name

    def patient(sim):
        try:
            yield sim.timeout(50.0)
            log.append((sim.now, "patient-undisturbed"))
        except kernel.Interrupt as exc:
            log.append((sim.now, f"interrupted-{exc.cause}"))
            yield sim.timeout(1.5)
            log.append((sim.now, "patient-recovered"))

    def interrupter(sim, victim, after):
        yield sim.timeout(after)
        if victim.is_alive:
            victim.interrupt("poke")
        log.append((sim.now, "interrupter-done"))

    def combiner(sim, first, second):
        union = yield (first | second)
        log.append((sim.now, f"any-{len(union)}"))
        yield (first & second)
        log.append((sim.now, "all"))

    workers = [
        sim.process(worker(sim, f"w{i}", [(i % 3) + 1.0, 2.0, (i % 5) + 0.5]))
        for i in range(8)
    ]
    target = sim.process(patient(sim))
    sim.process(interrupter(sim, target, 3.0))
    sim.process(combiner(sim, workers[0], workers[1]))
    for i in range(5):
        # Five simultaneous plain timeouts: must fire in creation order.
        sim.timeout(4.0).callbacks.append(
            lambda event, i=i: log.append((sim.now, f"cb{i}"))
        )
    sim.run()
    log.append((sim.now, "end"))
    return log


class TestGoldenAgainstSeedKernel:
    def test_event_log_matches_seed_kernel(self):
        assert run_scenario(current_kernel) == run_scenario(legacy_kernel)

    def test_run_to_run_deterministic(self):
        assert run_scenario(current_kernel) == run_scenario(current_kernel)

    def test_final_clock_matches_seed_kernel(self):
        sims = []
        for kernel in (current_kernel, legacy_kernel):
            sim = kernel.Simulation()

            def pinger(sim):
                for i in range(100):
                    yield sim.timeout(0.1 * (i % 7) + 0.01)

            sim.process(pinger(sim))
            sim.run()
            sims.append(sim.now)
        assert sims[0] == sims[1]


class TestOrderingInvariants:
    def test_simultaneous_timeouts_fire_in_creation_order(self):
        sim = Simulation()
        fired = []
        for i in range(20):
            sim.timeout(1.0).callbacks.append(
                lambda event, i=i: fired.append(i)
            )
        sim.run()
        assert fired == list(range(20))

    def test_interrupt_beats_same_time_timeout(self):
        sim = Simulation()
        log = []
        box = []

        def sleeper(sim):
            try:
                yield sim.timeout(5.0)
                log.append("timeout-won")
            except Interrupt:
                log.append("interrupt-won")

        def interrupter(sim):
            yield sim.timeout(5.0)
            box[0].interrupt()

        # The interrupter is created first, so at t=5 it resumes before
        # the sleeper's timeout (scheduled later) fires.  Its interrupt
        # is queued *urgent* at t=5, jumping ahead of that already
        # queued same-time timeout.
        sim.process(interrupter(sim))
        box.append(sim.process(sleeper(sim)))
        sim.run()
        assert log == ["interrupt-won"]

    def test_process_completion_wakes_waiters_in_attach_order(self):
        sim = Simulation()
        woken = []

        def short(sim):
            yield sim.timeout(1.0)
            return "done"

        def waiter(sim, name, target):
            value = yield target
            woken.append((name, value))

        target = sim.process(short(sim))
        for name in ("a", "b", "c"):
            sim.process(waiter(sim, name, target))
        sim.run()
        assert woken == [("a", "done"), ("b", "done"), ("c", "done")]

    def test_condition_value_order_preserved(self):
        sim = Simulation()
        first, second = sim.timeout(2.0, "x"), sim.timeout(1.0, "y")
        gathered = AllOf(sim, [first, second])
        sim.run()
        assert list(gathered.value.values()) == ["x", "y"]

    def test_any_of_fires_at_earliest_event(self):
        sim = Simulation()
        either = AnyOf(sim, [sim.timeout(3.0, "slow"), sim.timeout(1.0, "quick")])
        result = sim.run(until=either)
        assert sim.now == 1.0
        assert list(result.values()) == ["quick"]

    def test_callbacks_contract_after_rework(self):
        sim = Simulation()
        timeout = sim.timeout(1.0)
        assert timeout.callbacks == []  # lazily allocated, still a list
        seen = []
        timeout.callbacks.append(lambda event: seen.append(event))
        sim.run()
        assert seen == [timeout]
        assert timeout.callbacks is None  # processed events expose None
        assert timeout.processed
