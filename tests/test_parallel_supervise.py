"""Tests for the fault-tolerant supervised runner (PR 7).

The contract under test: supervision changes *when* results arrive,
never *what* they are.  Every failure mode — a SIGKILLed worker, a
task wedged past its deadline, a task that raises on every attempt —
must be detected, retried per the policy, and finally reported as a
structured :class:`TaskOutcome` instead of an exception, so a batch
always completes and callers can salvage the survivors.
"""

import gc
import os
import signal
import time

import pytest

from repro.parallel import RetryPolicy, SupervisedRunner, TaskOutcome


def _square(x):
    return x * x


def _kill_once(sentinel, value):
    """SIGKILLs its own worker on the first attempt only."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 100


def _always_kill(value):
    os.kill(os.getpid(), signal.SIGKILL)


def _always_raise(value):
    raise ValueError(f"task rejects {value}")


def _hang(value):
    time.sleep(600)
    return value


def _hang_once(sentinel, value):
    """Sleeps forever on the first attempt, returns on the second."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(600)
    return value * 7


#: Fast deterministic policy for tests: retries are immediate.
_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0, jitter=0.0)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=1.0, backoff_multiplier=2.0,
            backoff_max=30.0, jitter=0.25, seed=11,
        )
        delays = [policy.delay(attempt, task_index=3) for attempt in (1, 2, 3)]
        assert delays == [
            policy.delay(attempt, task_index=3) for attempt in (1, 2, 3)
        ]
        # Each delay lies in [base * (1 - jitter), base] for its attempt.
        for attempt, delay in zip((1, 2, 3), delays):
            base = 1.0 * 2.0 ** (attempt - 1)
            assert base * 0.75 <= delay <= base

    def test_jitter_differs_per_task_but_not_per_run(self):
        policy = RetryPolicy(jitter=0.5, seed=2)
        samples = {policy.delay(1, task_index=i) for i in range(16)}
        assert len(samples) > 1  # tasks never retry in lockstep

    def test_backoff_cap(self):
        policy = RetryPolicy(
            backoff_base=10.0, backoff_multiplier=10.0, backoff_max=15.0,
            jitter=0.0,
        )
        assert policy.delay(3) == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestSupervisedRunner:
    def test_results_in_input_order_first_try(self):
        runner = SupervisedRunner(workers=3, retry=_FAST, heartbeat_interval=0.2)
        outcomes = runner.map(_square, [{"x": i} for i in range(6)])
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok and o.attempts == 1 and o.error is None for o in outcomes)

    def test_sigkilled_worker_is_detected_and_retried(self, tmp_path):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        sentinel = str(tmp_path / "killed-once")
        (outcome,) = runner.map(_kill_once, [{"sentinel": sentinel, "value": 5}])
        assert outcome.ok and outcome.value == 105
        assert outcome.attempts == 2
        assert outcome.worker_deaths == 1

    def test_reproducible_death_degrades_gracefully(self):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        outcomes = runner.map(
            _always_kill if False else _square, [{"x": 1}]
        )  # sanity: runner reusable
        assert outcomes[0].ok
        (outcome,) = runner.map(_always_kill, [{"value": 1}])
        assert not outcome.ok
        assert outcome.attempts == _FAST.max_attempts
        assert outcome.worker_deaths == _FAST.max_attempts
        assert "died" in outcome.error

    def test_hung_worker_hits_deadline_and_is_retried(self, tmp_path):
        runner = SupervisedRunner(
            workers=2, task_timeout=0.5, heartbeat_interval=0.1, retry=_FAST,
        )
        sentinel = str(tmp_path / "hung-once")
        (outcome,) = runner.map(_hang_once, [{"sentinel": sentinel, "value": 3}])
        assert outcome.ok and outcome.value == 21
        assert outcome.timeouts == 1
        assert outcome.attempts == 2

    def test_sleep_forever_task_fails_with_bounded_wall_clock(self):
        runner = SupervisedRunner(
            workers=1, task_timeout=0.4, heartbeat_interval=0.1,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        )
        start = time.monotonic()
        (outcome,) = runner.map(_hang, [{"value": 9}])
        elapsed = time.monotonic() - start
        assert not outcome.ok
        assert outcome.timeouts == 2
        assert "deadline" in outcome.error
        assert elapsed < 10.0  # 2 attempts x 0.4s deadline, plus slack

    def test_exceptions_are_reported_not_raised(self):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        outcomes = runner.map(
            _always_raise, [{"value": 1}, {"value": 2}]
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.attempts == _FAST.max_attempts for o in outcomes)
        assert "task rejects 1" in outcomes[0].error
        assert "task rejects 2" in outcomes[1].error

    def test_batch_survives_mixed_failures(self, tmp_path):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        sentinel = str(tmp_path / "mixed")
        # Interleave healthy tasks with a transient killer and a
        # permanent failure; the healthy results must be untouched.
        outcomes_sq = runner.map(_square, [{"x": 2}, {"x": 3}])
        (killed,) = runner.map(_kill_once, [{"sentinel": sentinel, "value": 1}])
        (raised,) = runner.map(_always_raise, [{"value": 0}])
        assert [o.value for o in outcomes_sq] == [4, 9]
        assert killed.ok and raised.ok is False

    def test_on_result_fires_once_per_task(self):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        seen = []
        outcomes = runner.map(
            _square, [{"x": i} for i in range(4)],
            on_result=lambda outcome: seen.append(outcome.index),
        )
        assert sorted(seen) == [0, 1, 2, 3]  # completion order varies
        assert all(isinstance(o, TaskOutcome) for o in outcomes)

    def test_telemetry_counters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        runner = SupervisedRunner(
            workers=2, retry=_FAST, heartbeat_interval=0.2, metrics=metrics,
        )
        sentinel = str(tmp_path / "counted")
        runner.map(_kill_once, [{"sentinel": sentinel, "value": 1}])
        counters = metrics.snapshot()["counters"]
        assert counters["supervise.tasks"] == 1
        assert counters["supervise.attempts"] == 2
        assert counters["supervise.worker_deaths"] == 1
        assert counters["supervise.retries"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedRunner(task_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisedRunner(straggler_factor=1.0)


def _probed_task(steps, pause):
    """Advances the worker progress probe slowly enough to be sampled."""
    from repro.obs.worker import PROBE

    PROBE.reset(steps)
    for _ in range(steps):
        time.sleep(pause)
        PROBE.advance()
    return steps


class TestProgressProbe:
    """PR 8: heartbeats ship worker progress + RSS onto TaskOutcome."""

    def test_outcome_carries_progress_and_rss(self):
        runner = SupervisedRunner(workers=1, heartbeat_interval=0.05)
        (outcome,) = runner.map(_probed_task, [{"steps": 8, "pause": 0.05}])
        assert outcome.ok
        assert outcome.last_progress is not None
        assert outcome.last_progress["total"] == 8
        assert outcome.last_progress["done"] > 0
        assert outcome.last_progress_time is not None
        assert outcome.peak_rss_kb and outcome.peak_rss_kb > 0

    def test_fast_task_without_heartbeat_has_none(self):
        # A task finishing inside one heartbeat never ships a progress
        # payload; those fields stay None rather than inventing a zero
        # sample.  Its reply still carries the worker's peak RSS.
        runner = SupervisedRunner(workers=1, heartbeat_interval=30.0)
        (outcome,) = runner.map(_square, [{"x": 5}])
        assert outcome.ok and outcome.value == 25
        assert outcome.last_progress is None
        assert outcome.last_progress_time is None
        assert outcome.peak_rss_kb and outcome.peak_rss_kb > 0

    def test_on_event_stream(self):
        events = []
        runner = SupervisedRunner(workers=1, heartbeat_interval=0.05)
        runner.map(
            _probed_task, [{"steps": 6, "pause": 0.05}],
            on_event=lambda kind, index, info: events.append((kind, index)),
        )
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "attempt_started"
        assert kinds[-1] == "attempt_ok"
        assert "heartbeat" in kinds
        assert all(index == 0 for _, index in events)

    def test_on_event_callback_failure_is_swallowed(self):
        def boom(kind, index, info):
            raise RuntimeError("observer died")

        runner = SupervisedRunner(workers=1, heartbeat_interval=0.2)
        (outcome,) = runner.map(_square, [{"x": 3}], on_event=boom)
        assert outcome.ok and outcome.value == 9

    def test_on_event_reports_failures(self, tmp_path):
        events = []
        runner = SupervisedRunner(workers=1, retry=_FAST, heartbeat_interval=0.2)
        sentinel = str(tmp_path / "probe-kill")
        (outcome,) = runner.map(
            _kill_once, [{"sentinel": sentinel, "value": 1}],
            on_event=lambda kind, index, info: events.append((kind, info)),
        )
        assert outcome.ok
        failed = [info for kind, info in events if kind == "attempt_failed"]
        assert len(failed) == 1
        assert failed[0]["kind"] == "death"
        assert failed[0]["attempt"] == 1
        assert failed[0]["duration"] >= 0.0


# -- persistent workers (PR 16) ----------------------------------------------


def _slow_square(x, sentinel=None):
    """Squares ``x``; SIGKILLs its worker once if given a fresh sentinel."""
    if sentinel is not None and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return x * x


def _stop_once(sentinel, value):
    """Freezes its whole worker (heartbeat thread included) once."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value * 7


def _raise_once(sentinel, x):
    """Raises on its first attempt only (no sentinel: never)."""
    if sentinel is not None and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise ValueError(f"first attempt at {x}")
    return x * x


def _return_or_hang(value):
    if value:
        time.sleep(600)
    return value


def _raise_odd(value):
    if value % 2:
        raise ValueError(f"odd {value}")
    return value


def _probe_or_wait(steps, pause):
    """``steps`` probed steps, or (``steps == 0``) one probe-less wait."""
    if steps:
        return _probed_task(steps, pause)
    time.sleep(pause)
    return 0


def _threads(pause):
    """This worker's thread count and the names of its other threads."""
    import threading

    time.sleep(pause)
    others = tuple(
        thread.name for thread in threading.enumerate()
        if thread is not threading.current_thread()
    )
    return threading.active_count(), others


def _apply(x, hook):
    return hook(x)


def _alive(pid):
    """Whether any thread of ``pid`` is still running.

    A SIGKILLed process whose main thread is already a zombie keeps its
    pipes open until its last (heartbeat) thread is gone too.
    """
    try:
        threads = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return False
    for tid in threads:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state not in "ZX":
            return True
    return False


def _wait_dead(pid, timeout=10.0):
    """Wait until ``pid`` has exited (reaped or not) and closed its pipes."""
    deadline = time.monotonic() + timeout
    while _alive(pid):
        assert time.monotonic() < deadline, f"pid {pid} still alive"
        time.sleep(0.01)


class _Events:
    """``on_event`` collector: ``(kind, index, info)`` in arrival order."""

    def __init__(self):
        self.rows = []

    def __call__(self, kind, index, info):
        self.rows.append((kind, index, dict(info)))

    def started(self):
        return [
            (index, info["attempt"], info["pid"])
            for kind, index, info in self.rows
            if kind == "attempt_started"
        ]

    def pids(self):
        return [pid for _, _, pid in self.started()]


def _metered(**kwargs):
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    return SupervisedRunner(metrics=metrics, **kwargs), metrics


def _counters(metrics):
    return metrics.snapshot()["counters"]


def _heap_in_sight(value):
    """What the collector would traverse in this worker, and whether
    the driver's ballast is part of it."""
    frozen = gc.get_freeze_count()
    collectable = len(gc.get_objects())
    gc.collect()  # must neither see nor free what the driver holds
    return value, frozen, collectable, len(_BALLAST)


#: A driver-side heap for the forked workers to inherit.
_BALLAST = []


class TestPersistentWorkers:
    """Workers are forked per slot and live for the whole ``map()``."""

    def test_a_worker_freezes_the_heap_it_inherits(self):
        _BALLAST.extend((i, []) for i in range(50_000))
        try:
            assert gc.get_freeze_count() == 0
            tracked = len(gc.get_objects())
            outcomes = SupervisedRunner(workers=2, retry=_FAST).map(
                _heap_in_sight, [{"value": i} for i in range(6)]
            )
            assert gc.get_freeze_count() == 0  # the driver's collector is untouched
        finally:
            _BALLAST.clear()
        assert all(o.ok for o in outcomes)
        for value, (echo, frozen, collectable, ballast) in enumerate(
            o.value for o in outcomes
        ):
            assert echo == value and ballast == 50_000
            assert frozen > 100_000  # the ballast's tuples and lists
            assert collectable < tracked - 100_000

    def test_clean_map_forks_one_process_per_slot(self):
        runner, metrics = _metered(workers=2, retry=_FAST, heartbeat_interval=0.2)
        events = _Events()
        outcomes = runner.map(
            _slow_square, [{"x": i} for i in range(16)], on_event=events
        )
        assert [o.value for o in outcomes] == [i * i for i in range(16)]
        assert all(o.attempts == 1 for o in outcomes)
        assert len(set(events.pids())) <= 2
        # Launch order is queue order: first ready entry first.
        assert [index for index, _, _ in events.started()] == list(range(16))
        counters = _counters(metrics)
        assert counters["supervise.spawns"] == 2
        assert counters["supervise.attempts"] == 16

    def test_sigkill_replaces_only_the_dead_worker(self, tmp_path):
        runner, metrics = _metered(workers=2, retry=_FAST, heartbeat_interval=0.2)
        events = _Events()
        params = [{"x": i} for i in range(16)]
        params[5]["sentinel"] = str(tmp_path / "victim")
        outcomes = runner.map(_slow_square, params, on_event=events)
        assert [o.value for o in outcomes] == [i * i for i in range(16)]
        assert outcomes[5].attempts == 2 and outcomes[5].worker_deaths == 1
        assert sum(o.attempts for o in outcomes) == 17
        (victim,) = [
            pid for index, attempt, pid in events.started()
            if (index, attempt) == (5, 1)
        ]
        kinds = [kind for kind, _, _ in events.rows]
        death = kinds.index("attempt_failed")

        def launched(rows):
            return {info["pid"] for kind, _, info in rows if kind == "attempt_started"}

        before, after = launched(events.rows[:death]), launched(events.rows[death:])
        assert len(before) == 2 and victim in before
        (survivor,) = before - {victim}
        assert victim not in after
        assert survivor in after  # the other worker was not disturbed
        assert len(after - before) == 1  # exactly one replacement
        assert _counters(metrics)["supervise.spawns"] == 3

    def test_deadline_kill_retries_on_a_fresh_worker(self, tmp_path):
        runner, metrics = _metered(
            workers=1, task_timeout=0.5, heartbeat_interval=0.1, retry=_FAST
        )
        events = _Events()
        (outcome,) = runner.map(
            _hang_once, [{"sentinel": str(tmp_path / "hung"), "value": 3}],
            on_event=events,
        )
        assert outcome.ok and outcome.value == 21
        assert outcome.timeouts == 1 and outcome.attempts == 2
        first, second = events.pids()
        assert first != second
        assert not os.path.exists(f"/proc/{first}")  # killed and reaped
        assert _counters(metrics)["supervise.spawns"] == 2

    def test_stall_kill_retries_on_a_fresh_worker(self, tmp_path):
        runner, metrics = _metered(
            workers=1, heartbeat_interval=0.05, heartbeat_grace=4.0, retry=_FAST
        )
        events = _Events()
        (outcome,) = runner.map(
            _stop_once, [{"sentinel": str(tmp_path / "frozen"), "value": 2}],
            on_event=events,
        )
        assert outcome.ok and outcome.value == 14
        assert outcome.stalls == 1 and outcome.attempts == 2
        first, second = events.pids()
        assert first != second
        assert not os.path.exists(f"/proc/{first}")  # SIGKILL reaches a stopped process
        assert _counters(metrics)["supervise.spawns"] == 2

    def test_raising_task_keeps_its_worker(self):
        runner, metrics = _metered(
            workers=1, heartbeat_interval=0.2,
            retry=RetryPolicy(max_attempts=1),
        )
        events = _Events()
        raised, returned = runner.map(
            _raise_odd, [{"value": 1}, {"value": 2}], on_event=events
        )
        assert not raised.ok and "odd 1" in raised.error
        assert returned.ok and returned.value == 2
        first, second = events.pids()
        assert first == second
        counters = _counters(metrics)
        assert counters["supervise.spawns"] == 1
        assert counters["supervise.errors"] == 1

    def test_idle_worker_death_charges_no_task(self, tmp_path):
        # The first task raises once and its retry waits out a backoff;
        # the worker that answered is idle when the failure is reported,
        # and is killed then.  The next hand-out finds it dead.
        runner, metrics = _metered(
            workers=1, heartbeat_interval=0.2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.05, jitter=0.0),
        )
        events = _Events()

        def kill_idle_worker(kind, index, info):
            events(kind, index, info)
            if kind == "attempt_failed":
                pid = events.pids()[-1]
                os.kill(pid, signal.SIGKILL)
                _wait_dead(pid)

        outcomes = runner.map(
            _raise_once,
            [{"sentinel": str(tmp_path / "raised"), "x": 3},
             {"sentinel": None, "x": 4}],
            on_event=kill_idle_worker,
        )
        assert [o.value for o in outcomes] == [9, 16]
        assert [o.attempts for o in outcomes] == [2, 1]  # the raise, not the death
        assert all(o.worker_deaths == 0 for o in outcomes)
        first, second, third = events.pids()
        assert first != second == third
        counters = _counters(metrics)
        assert counters["supervise.spawns"] == 2
        assert counters["supervise.attempts"] == 3
        assert counters["supervise.errors"] == 1
        assert "supervise.worker_deaths" not in counters

    def test_a_freed_worker_is_handed_out_before_on_result(self):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        log = []
        outcomes = runner.map(
            _slow_square, [{"x": i} for i in range(12)],
            on_event=lambda kind, index, info: log.append((kind, index)),
            on_result=lambda outcome: log.append(("on_result", outcome.index)),
        )
        assert [o.value for o in outcomes] == [i * i for i in range(12)]
        kinds = [kind for kind, _ in log]
        finished = [index for kind, index in log if kind == "attempt_ok"]
        reported = [index for kind, index in log if kind == "on_result"]
        assert reported == finished  # once per task, in completion order
        assert sorted(reported) == list(range(12))
        for index in finished:
            freed = log.index(("attempt_ok", index))
            checkpoint = log.index(("on_result", index))
            if kinds[:freed].count("attempt_started") < 12:
                # Work was queued when the slot came free: it went out first.
                assert "attempt_started" in kinds[freed:checkpoint], log

    def test_a_result_landed_before_a_stop_is_still_reported(self):
        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        events, reported = _Events(), []

        def landed():
            return any(kind == "attempt_ok" for kind, _, _ in events.rows)

        outcomes = runner.map(
            _return_or_hang, [{"value": i} for i in range(4)],
            on_event=events, should_stop=landed,
            on_result=lambda outcome: reported.append(outcome.index),
        )
        assert reported == [0]
        assert outcomes[0].ok and outcomes[0].value == 0
        assert [o.error for o in outcomes[1:]] == ["cancelled"] * 3

    def test_a_raising_on_result_after_the_hand_out_leaves_no_worker(self):
        import multiprocessing as mp

        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        log = []

        def boom(outcome):
            log.append("on_result")
            raise RuntimeError("checkpoint failed")

        def observe(kind, index, info):
            if kind != "heartbeat":
                log.append(kind)

        with pytest.raises(RuntimeError, match="checkpoint failed"):
            runner.map(
                _return_or_hang, [{"value": i} for i in range(4)],
                on_event=observe, on_result=boom,
            )
        # Task 0 freed its slot for task 2, which was hanging when the
        # checkpoint raised: the hand-out came first, and was reaped.
        assert log == [
            "attempt_started", "attempt_started", "attempt_ok",
            "attempt_started", "on_result",
        ]
        assert mp.active_children() == []

    def test_beats_never_carry_the_previous_tasks_progress(self):
        runner = SupervisedRunner(workers=1, heartbeat_interval=0.02)
        events = _Events()
        probed, plain = runner.map(
            _probe_or_wait,
            [{"steps": 8, "pause": 0.03}, {"steps": 0, "pause": 0.2}],
            on_event=events,
        )
        assert probed.last_progress["total"] == 8
        first, second = events.pids()
        assert first == second
        beats = [
            info["payload"] for kind, index, info in events.rows
            if kind == "heartbeat" and index == 1
        ]
        assert beats
        assert all((b["done"], b["total"]) == (0, 0) for b in beats)
        assert (plain.last_progress["done"], plain.last_progress["total"]) == (0, 0)

    def test_heartbeat_interval_restarts_with_each_task(self):
        # One beat lands in the first task (at 0.4 s of 0.6).  A beat
        # cadence carried over would fire again at 0.8 s, inside the
        # second task (0.6-0.9 s); restarted, its first beat is due at
        # 1.0 s, after it has finished.
        runner = SupervisedRunner(workers=1, heartbeat_interval=0.4)
        events = _Events()
        slow, fast = runner.map(
            _probe_or_wait,
            [{"steps": 0, "pause": 0.6}, {"steps": 0, "pause": 0.3}],
            on_event=events,
        )
        first, second = events.pids()
        assert first == second
        assert slow.last_progress is not None
        assert fast.ok
        assert fast.last_progress is None
        assert fast.last_progress_time is None

    def test_a_worker_runs_one_heartbeat_thread_for_all_its_tasks(self):
        runner = SupervisedRunner(workers=1, heartbeat_interval=0.01)
        events = _Events()
        outcomes = runner.map(
            _threads, [{"pause": 0.02 * (i % 2)} for i in range(8)],
            on_event=events,
        )
        assert len(set(events.pids())) == 1
        assert all(o.ok and o.value[0] <= 2 for o in outcomes)
        (beat,) = {o.value[1] for o in outcomes}  # the same thread every task
        assert len(beat) == 1

    def test_params_need_not_be_picklable_under_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("params are pickled once per worker without fork")
        runner = SupervisedRunner(workers=2, heartbeat_interval=0.2)
        outcomes = runner.map(
            _apply, [{"x": i, "hook": lambda v: v + 100} for i in range(4)]
        )
        assert [o.value for o in outcomes] == [100, 101, 102, 103]

    def test_no_worker_outlives_map(self):
        import multiprocessing as mp

        runner = SupervisedRunner(workers=2, retry=_FAST, heartbeat_interval=0.2)
        runner.map(_square, [{"x": i} for i in range(6)])
        assert mp.active_children() == []

        events = _Events()
        outcomes = runner.map(
            _hang, [{"value": i} for i in range(4)],
            on_event=events, should_stop=lambda: bool(events.rows),
        )
        assert all(o.error == "cancelled" for o in outcomes)
        assert events.pids()
        assert mp.active_children() == []

        def boom(outcome):
            raise RuntimeError("checkpoint failed")

        with pytest.raises(RuntimeError, match="checkpoint failed"):
            runner.map(_slow_square, [{"x": i} for i in range(6)], on_result=boom)
        assert mp.active_children() == []

    def test_concurrent_maps_on_one_runner_share_no_worker(self):
        import threading

        runner, metrics = _metered(workers=2, retry=_FAST, heartbeat_interval=0.2)
        collectors = [_Events(), _Events()]
        results = [None, None]

        def run(slot):
            results[slot] = runner.map(
                _slow_square, [{"x": 10 * slot + i} for i in range(8)],
                on_event=collectors[slot],
            )

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for slot in (0, 1):
            assert [o.value for o in results[slot]] == [
                (10 * slot + i) ** 2 for i in range(8)
            ]
        pids = [set(collector.pids()) for collector in collectors]
        assert all(1 <= len(group) <= 2 for group in pids)
        assert not pids[0] & pids[1]
        assert _counters(metrics)["supervise.spawns"] == len(pids[0] | pids[1])

    def test_workers_exit_when_the_supervisor_is_killed(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "driver.py"
        script.write_text(
            "import sys, time\n"
            "from repro.parallel import SupervisedRunner\n"
            "def nap(x):\n"
            "    time.sleep(0.2)\n"
            "    return x\n"
            "def announce(kind, index, info):\n"
            "    if kind == 'attempt_started':\n"
            "        print(info['pid'], flush=True)\n"
            "SupervisedRunner(workers=2, heartbeat_interval=0.05).map(\n"
            "    nap, [{'x': i} for i in range(200)], on_event=announce)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        driver = subprocess.Popen(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            workers = {int(driver.stdout.readline()) for _ in range(2)}
            assert len(workers) == 2
        finally:
            driver.kill()  # SIGKILL: no finally, no atexit
            driver.wait(timeout=10.0)
            driver.stdout.close()
        try:
            for pid in workers:
                _wait_dead(pid)
        finally:
            for pid in workers:  # a failing run must not leave them behind
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _mask(x):
    return x, sorted(os.sched_getaffinity(0))


class TestWorkerPlacement:
    """The supervisor moves a fresh worker onto its slot's CPU and hands
    it back the whole mask.

    Which CPU the kernel then runs it on is the kernel's business and is
    not tested."""

    def test_slots_take_the_allowed_cpus_round_robin(self):
        from repro.parallel.supervise import _slot_cpu

        assert [_slot_cpu(s, {0, 1}) for s in range(4)] == [0, 1, 0, 1]
        assert [_slot_cpu(s, {7, 2, 5}) for s in range(4)] == [2, 5, 7, 2]
        assert _slot_cpu(3, {4}) is None  # nothing to choose
        assert _slot_cpu(0, ()) is None  # no affinity calls

    def test_slot_0_takes_the_cpu_after_the_supervisors(self):
        from repro.parallel.supervise import _slot_cpu

        assert [_slot_cpu(s, {0, 1}, 0) for s in range(4)] == [1, 0, 1, 0]
        assert [_slot_cpu(s, {0, 1}, 1) for s in range(4)] == [0, 1, 0, 1]
        assert [_slot_cpu(s, {7, 2, 5}, 5) for s in range(4)] == [7, 2, 5, 7]
        assert [_slot_cpu(s, {7, 2, 5}, 7) for s in range(4)] == [2, 5, 7, 2]
        # An unknown CPU, or one outside the set: the lowest first.
        for current in (None, 3):
            assert [_slot_cpu(s, {7, 2, 5}, current) for s in range(4)] == [
                2, 5, 7, 2,
            ]
        assert _slot_cpu(1, {4}, 4) is None

    @pytest.mark.skipif(
        not os.path.exists("/proc/thread-self/stat"), reason="no /proc"
    )
    def test_the_supervisor_reads_the_cpu_it_runs_on(self):
        from repro.parallel.supervise import _current_cpu

        cpu = _current_cpu()
        assert isinstance(cpu, int)
        if hasattr(os, "sched_getaffinity"):
            assert cpu in os.sched_getaffinity(0)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity calls"
    )
    def test_the_supervisor_places_each_fork(self, monkeypatch):
        from repro.parallel import supervise

        calls = []
        real = os.sched_setaffinity

        def spy(pid, mask):
            calls.append((pid, set(mask)))
            return real(pid, mask)

        monkeypatch.setattr(supervise.os, "sched_setaffinity", spy)
        events = _Events()
        SupervisedRunner(workers=2, retry=_FAST).map(
            _slow_square, [{"x": i} for i in range(6)], on_event=events
        )
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            assert calls == []
            return
        pids = list(dict.fromkeys(events.pids()))
        assert [pid for pid, _ in calls] == [pids[0], pids[0], pids[1], pids[1]]
        for (_, one), (_, whole) in zip(calls[::2], calls[1::2]):
            assert len(one) == 1 and one <= allowed and whole == allowed

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity calls"
    )
    def test_a_worker_ends_with_the_supervisors_mask(self):
        outcomes = SupervisedRunner(workers=2, retry=_FAST).map(
            _mask, [{"x": i} for i in range(6)]
        )
        supervisor = sorted(os.sched_getaffinity(0))
        assert [o.value for o in outcomes] == [(i, supervisor) for i in range(6)]

    def test_a_replacement_takes_the_dead_workers_slot(self, tmp_path, monkeypatch):
        slots = []
        spawn = SupervisedRunner._spawn

        def spy(self, fn, param_sets, slot):
            slots.append(slot)
            return spawn(self, fn, param_sets, slot)

        monkeypatch.setattr(SupervisedRunner, "_spawn", spy)
        events = _Events()
        params = [{"x": i} for i in range(16)]
        params[5]["sentinel"] = str(tmp_path / "victim")
        outcomes = SupervisedRunner(
            workers=2, retry=_FAST, heartbeat_interval=0.2
        ).map(_slow_square, params, on_event=events)
        assert [o.value for o in outcomes] == [i * i for i in range(16)]
        assert slots[:2] == [0, 1] and len(slots) == 3
        (victim,) = [
            pid for index, attempt, pid in events.started()
            if (index, attempt) == (5, 1)
        ]
        first_two = list(dict.fromkeys(events.pids()))[:2]
        assert slots[2] == first_two.index(victim)
