"""Tests for the parallel sweep runner and result cache.

The central property: a sweep's results are a pure function of
``(task function, parameters, base seed)`` — never of worker count,
scheduling order, or cache state.  Serial, parallel, and warm-cache
executions must therefore be bit-identical.
"""

import ast
import hashlib
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.detection import detection_sweep_task
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER
from repro.core.optimizer import ScrubParameterOptimizer
from repro.parallel import (
    ResultCache,
    RetryPolicy,
    SweepRunner,
    SweepTaskError,
    canonicalize,
    derive_seed,
)
from repro.parallel.cache import _ENTRY_MAGIC
from repro.traces import Trace, generate_trace, write_trace

#: Retries at once: crash tests must not add backoff sleeps to tier-1.
_NO_BACKOFF = RetryPolicy(backoff_base=0.0, jitter=0.0)


def _noisy_dot(values, scale, seed):
    """A task whose result exposes any seed or ordering divergence."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(values))
    return float(np.dot(np.asarray(values), noise) * scale)


def _square(x):
    return x * x


def _apply(hook, x):
    """``hook`` may be anything callable — picklable or not."""
    return hook(x), os.getpid()


def _echo(task, scale=1):
    return task * scale


# -- determinism: serial vs parallel ----------------------------------------


class TestSerialParallelIdentical:
    @settings(max_examples=5, deadline=None)
    @given(
        param_sets=st.lists(
            st.fixed_dictionaries(
                {
                    "values": st.lists(
                        st.floats(-1e6, 1e6, allow_nan=False),
                        min_size=1,
                        max_size=8,
                    ),
                    "scale": st.floats(-100, 100, allow_nan=False),
                }
            ),
            min_size=2,
            max_size=6,
        ),
        base_seed=st.integers(0, 2**32 - 1),
    )
    def test_parallel_results_bit_identical_to_serial(
        self, param_sets, base_seed
    ):
        param_sets = [
            dict(params, seed=derive_seed(base_seed, index))
            for index, params in enumerate(param_sets)
        ]
        serial = SweepRunner(workers=0).map(_noisy_dot, param_sets)
        parallel = SweepRunner(workers=2).map(_noisy_dot, param_sets)
        assert serial == parallel  # exact float equality, not approx

    def test_results_keep_input_order(self):
        params = [{"x": i} for i in range(7)]
        assert SweepRunner(workers=2).map(_square, params) == [
            i * i for i in range(7)
        ]

    def test_lambda_task_runs_in_workers(self):
        # Workers inherit the task by fork: nothing has to pickle.
        double = lambda x: (2 * x, os.getpid())  # noqa: E731
        params = [{"x": i} for i in range(4)]
        runner = SweepRunner(workers=2)
        pooled = runner.map(double, params)
        serial = SweepRunner(workers=0).map(double, params)
        assert [v for v, _ in pooled] == [v for v, _ in serial] == [0, 2, 4, 6]
        assert all(pid == os.getpid() for _, pid in serial)
        assert all(pid != os.getpid() for _, pid in pooled)
        assert runner.executed == 4

    def test_unpicklable_parameters_run_in_workers(self):
        lock = threading.Lock()  # cannot be pickled

        def hook(x):
            with lock:
                return x + 100

        params = [{"hook": hook, "x": i} for i in range(4)]
        pooled = SweepRunner(workers=2).map(_apply, params)
        serial = SweepRunner(workers=0).map(_apply, params)
        assert [v for v, _ in pooled] == [v for v, _ in serial]
        assert all(pid != os.getpid() for _, pid in pooled)

    def test_task_kwarg_named_task_does_not_collide(self):
        params = [{"task": i, "scale": 3} for i in range(3)]
        assert SweepRunner(workers=2).map(_echo, params) == [0, 3, 6]


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**63 for s in seeds)

    def test_base_seed_changes_every_stream(self):
        assert all(
            derive_seed(1, i) != derive_seed(2, i) for i in range(20)
        )


# -- the cache ---------------------------------------------------------------


class TestResultCache:
    def test_hit_skips_execution(self, tmp_path):
        params = [{"x": i} for i in range(5)]
        cold = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        first = cold.map(_square, params)
        assert cold.executed == 5

        warm = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        second = warm.map(_square, params)
        assert second == first
        assert warm.executed == 0
        assert warm.cache_hits == 5

    def test_key_sensitive_to_params_function_and_version(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        base = cache.key(_square, {"x": 1})
        assert cache.key(_square, {"x": 2}) != base
        assert cache.key(_noisy_dot, {"x": 1}) != base
        assert ResultCache(tmp_path, version="2").key(_square, {"x": 1}) != base

    def test_key_ignores_dict_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(_square, {"a": 1, "b": 2.0}) == cache.key(
            _square, {"b": 2.0, "a": 1}
        )

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",
            # 'g' is the pickle GET opcode, whose int argument parse
            # raises ValueError rather than UnpicklingError — any load
            # failure must still be a miss.
            b"garbage\n",
            b"",
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = cache.key(_square, {"x": 3})
        cache.put(key, 9)
        path = cache._path(key)
        path.write_bytes(garbage)
        hit, _ = cache.get(key)
        assert not hit
        # A subsequent run recomputes and repairs the entry.
        runner = SweepRunner(workers=0, cache=cache)
        assert runner.map(_square, [{"x": 3}]) == [9]
        hit, value = cache.get(key)
        assert hit and value == 9

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=0, cache=cache)
        runner.map(_square, [{"x": 1}, {"x": 2}])
        assert cache.clear() == 2
        rerun = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        rerun.map(_square, [{"x": 1}])
        assert rerun.executed == 1


class TestCanonicalize:
    def test_arrays_hash_by_content(self):
        a = np.arange(4, dtype=float)
        assert canonicalize(a) == canonicalize(a.copy())
        assert canonicalize(a) != canonicalize(a + 1)
        assert canonicalize(a) != canonicalize(a.astype(np.int64))

    def test_objects_canonicalize_by_type_and_attributes(self):
        m1 = ScrubServiceModel([65536, 4 << 20], [0.004, 0.05])
        m2 = ScrubServiceModel([65536, 4 << 20], [0.004, 0.05])
        m3 = ScrubServiceModel([65536, 4 << 20], [0.004, 0.06])
        assert canonicalize(m1) == canonicalize(m2)
        assert canonicalize(m1) != canonicalize(m3)

    def test_float_int_distinction(self):
        assert canonicalize({"x": 1}) != canonicalize({"x": 1.0})


# -- the acceptance scenario: warm optimizer sweep, zero simulations ---------


@pytest.fixture
def optimizer():
    rng = np.random.default_rng(7)
    durations = rng.exponential(0.05, 2000)
    model = ScrubServiceModel([65536, 4 << 20], [0.004, 0.05])
    return ScrubParameterOptimizer(
        durations,
        total_requests=4000,
        span=100.0,
        service_model=model,
        sizes=[k * 65536 for k in range(1, 13)],
    )


class TestOptimizerSweepCaching:
    def test_warm_rerun_performs_zero_simulation_calls(self, tmp_path, optimizer):
        goals = [0.001, 0.002]
        cold_runner = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        cold = [optimizer.optimize(g, runner=cold_runner) for g in goals]
        assert cold_runner.executed > 0

        # Every simulation the optimizer runs (simulate and each
        # bisection step alike) charges this one meter one sim.
        before = SIM_METER.sims
        warm_runner = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        warm = [optimizer.optimize(g, runner=warm_runner) for g in goals]

        assert warm == cold
        assert warm_runner.executed == 0
        assert SIM_METER.sims - before == 0  # zero simulations on the warm rerun
        optimizer.best_threshold(12 * 65536, 0.001, iterations=5)
        assert SIM_METER.sims - before == 7  # threshold 0, hi and every step

    def test_runner_path_matches_serial_optimize(self, tmp_path, optimizer):
        runner = SweepRunner(workers=0, cache=ResultCache(tmp_path))
        assert optimizer.optimize(0.001, runner=runner) == optimizer.optimize(
            0.001
        )


# -- worker deaths and task exceptions ---------------------------------------

def _flaky(sentinel, value, crash=False):
    """Dies hard (kills its worker) once, then succeeds on retry."""
    if crash and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return value * 2


def _fatal(value, crash=False):
    """Reproducibly kills its worker when asked to."""
    if crash:
        os._exit(1)
    return value


def _angry(value):
    raise ValueError(f"no thanks: {value}")


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_locked(value):
    raise _Unpicklable(f"locked {value}")


def _raise_for(value, calls, bad=()):
    """Logs the call, then raises ``KeyError(value, "why")`` for ``bad`` values."""
    with open(calls, "a") as fh:
        fh.write(f"{value}\n")
    if value in bad:
        raise KeyError(value, "why")
    return value


def _raise_until(flag, value, bad):
    """Raises for ``bad`` until the ``flag`` file exists."""
    if value == bad and not os.path.exists(flag):
        raise ValueError(f"not yet: {value}")
    return value * 10


class TestWorkerCrashResilience:
    def test_transient_crash_is_retried_on_fresh_worker(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        params = [
            {"sentinel": sentinel, "value": i, "crash": i == 1}
            for i in range(4)
        ]
        runner = SweepRunner(workers=2, retry=_NO_BACKOFF)
        assert runner.map(_flaky, params) == [0, 2, 4, 6]
        assert runner.retries == 1  # only the task whose worker died

    def test_reproducible_crash_raises_structured_error(self, tmp_path):
        params = [
            {"value": 0},
            {"value": 1, "crash": True},
            {"value": 2},
        ]
        runner = SweepRunner(workers=2, retry=_NO_BACKOFF)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.map(_fatal, params)
        assert excinfo.value.failures == [(1, {"value": 1, "crash": True})]
        # The message names the failing task, its parameter set, the
        # attempts spent and the last death supervision saw.
        message = str(excinfo.value)
        assert "task 1" in message
        assert "'crash': True" in message
        assert "3 attempts" in message and "died" in message
        assert runner.retries == 2

    def test_ordinary_exceptions_propagate_unwrapped(self):
        params = [{"value": 0}, {"value": 1}]
        with pytest.raises(ValueError, match="no thanks"):
            SweepRunner(workers=2).map(_angry, params)

    def test_lowest_index_raiser_wins_and_is_not_retried(self, tmp_path):
        calls = tmp_path / "calls"
        params = [
            {"value": i, "calls": str(calls), "bad": (1, 3)} for i in range(5)
        ]
        runner = SweepRunner(workers=2)
        with pytest.raises(KeyError) as excinfo:
            runner.map(_raise_for, params)
        assert type(excinfo.value) is KeyError
        assert excinfo.value.args == (1, "why")
        # The traceback from the worker rides along as the cause.
        assert "_raise_for" in str(excinfo.value.__cause__)
        # Every task ran exactly once: a raise is an answer, not a fault.
        assert sorted(calls.read_text().split()) == ["0", "1", "2", "3", "4"]
        assert runner.retries == 0
        assert runner.executed == 3

    def test_unpicklable_exception_arrives_as_runtime_error(self):
        with pytest.raises(RuntimeError, match="_Unpicklable: locked 0"):
            SweepRunner(workers=2).map(
                _raise_locked, [{"value": 0}, {"value": 1}]
            )

    def test_serial_path_is_unaffected(self):
        results = SweepRunner(workers=0).map(
            _fatal, [{"value": 3}, {"value": 4}]
        )
        assert results == [3, 4]

    def test_no_child_outlives_map(self, tmp_path):
        runner = SweepRunner(workers=2, retry=_NO_BACKOFF)
        runner.map(_square, [{"x": i} for i in range(4)])
        assert multiprocessing.active_children() == []
        with pytest.raises(SweepTaskError):
            runner.map(_fatal, [{"value": 0}, {"value": 1, "crash": True}])
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError):
            runner.map(_angry, [{"value": 0}, {"value": 1}])
        assert multiprocessing.active_children() == []


class TestFailedSweepKeepsFinishedResults:
    """Results reach the cache as they land, not after the whole batch."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_second_run_executes_only_what_had_not_finished(
        self, tmp_path, workers
    ):
        from repro.obs.metrics import MetricsRegistry

        flag = tmp_path / "fixed"
        params = [{"flag": str(flag), "value": i, "bad": 2} for i in range(4)]
        metrics = MetricsRegistry()
        first = SweepRunner(
            workers=workers,
            cache=ResultCache(tmp_path / "cache"),
            metrics=metrics,
        )
        with pytest.raises(ValueError, match="not yet: 2"):
            first.map(_raise_until, params)
        # In process the sweep stops at the raise; on workers the batch
        # drains, so only the raiser itself is missing.
        finished = 2 if workers == 0 else 3
        assert first.executed == finished
        counters = metrics.snapshot()["counters"]
        assert counters["parallel.executed"] == finished
        assert counters["parallel.tasks"] == 4

        flag.touch()
        second = SweepRunner(
            workers=workers, cache=ResultCache(tmp_path / "cache")
        )
        assert second.map(_raise_until, params) == [0, 10, 20, 30]
        assert second.cache_hits == finished
        assert second.executed == 4 - finished


class TestCacheEviction:
    """PR 7: corrupt entries are *deleted and counted*, not just missed."""

    def test_digest_mismatch_is_evicted_from_disk(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        key = cache.key(_square, {"x": 5})
        cache.put(key, 25)
        path = cache._path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit; the header digest catches it
        path.write_bytes(bytes(blob))
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()  # evicted, not left to poison later runs
        assert cache.evictions == 1
        counters = metrics.snapshot()["counters"]
        assert counters["cache.evictions"] == 1
        assert counters["cache.evictions.digest"] == 1

    def test_unpicklable_entry_is_evicted_and_counted(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        key = cache.key(_square, {"x": 8})
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = b"not a pickle at all"  # under a header that verifies
        digest = hashlib.sha256(payload).hexdigest().encode()
        path.write_bytes(_ENTRY_MAGIC + digest + b"\n" + payload)
        hit, _ = cache.get(key)
        assert not hit and not path.exists()
        counters = metrics.snapshot()["counters"]
        assert counters["cache.evictions.unpicklable"] == 1

    def test_headerless_entry_is_evicted_and_recomputed(self, tmp_path):
        import pickle

        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        key = cache.key(_square, {"x": 6})
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(-1))  # a bare pickle, wrong on purpose
        runner = SweepRunner(workers=0, cache=cache)
        assert runner.map(_square, [{"x": 6}]) == [36]
        assert (runner.executed, cache.evictions, cache.hits) == (1, 1, 0)
        counters = metrics.snapshot()["counters"]
        assert counters["cache.evictions.digest"] == 1
        # The recomputed value replaced it under a verifying header.
        assert cache.get(key) == (True, 36)

    def test_new_entries_are_self_verifying(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(_square, {"x": 2})
        cache.put(key, 4)
        assert cache._path(key).read_bytes().startswith(_ENTRY_MAGIC)


def _die_n_times(sentinel, value, times):
    """Kills its worker until ``times`` prior attempts are on record."""
    count = 0
    if os.path.exists(sentinel):
        with open(sentinel) as fh:
            count = len(fh.readlines())
    if count < times:
        with open(sentinel, "a") as fh:
            fh.write("x\n")
        os._exit(1)
    return value * 3


class TestConfigurableRetry:
    """A task whose worker died is retried under the runner's policy."""

    def test_extra_attempts_rescue_a_twice_crashing_task(self, tmp_path):
        sentinel = str(tmp_path / "double-crash")
        policy = RetryPolicy(
            max_attempts=4, backoff_base=0.0, backoff_max=0.0, jitter=0.0
        )
        runner = SweepRunner(workers=2, retry=policy)
        params = [
            {"sentinel": sentinel, "value": 7, "times": 2},
            {"sentinel": str(tmp_path / "unused"), "value": 1, "times": 0},
        ]
        assert runner.map(_die_n_times, params) == [21, 3]
        # Exact: only the task whose worker died is charged an attempt.
        assert runner.retries == 2

    def test_default_policy_gives_up_after_three_attempts(self, tmp_path):
        import dataclasses

        assert SweepRunner(workers=2).retry == RetryPolicy()
        # The same three attempts, minus the backoff sleeps.
        runner = SweepRunner(
            workers=2, retry=dataclasses.replace(RetryPolicy(), backoff_base=0.0)
        )
        sentinel = tmp_path / "stubborn"
        params = [
            {"sentinel": str(sentinel), "value": 7, "times": 5},
            {"sentinel": str(tmp_path / "unused"), "value": 1, "times": 0},
        ]
        with pytest.raises(SweepTaskError):
            runner.map(_die_n_times, params)
        assert len(sentinel.read_text().split()) == 3
        assert runner.retries == 2

    def test_attempts_and_retries_land_in_telemetry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        sentinel = str(tmp_path / "counted-crash")
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.0, backoff_max=0.0, jitter=0.0
        )
        runner = SweepRunner(workers=2, retry=policy, metrics=metrics)
        params = [
            {"sentinel": sentinel, "value": 2, "times": 1},
            {"sentinel": str(tmp_path / "unused"), "value": 5, "times": 0},
        ]
        assert runner.map(_die_n_times, params) == [6, 15]
        counters = metrics.snapshot()["counters"]
        assert counters["parallel.retries"] == runner.retries == 1
        assert counters["parallel.attempts"] == 3
        # The worker pool counts into the runner's registry too.
        assert counters["supervise.attempts"] == 3
        assert counters["supervise.worker_deaths"] == 1


class TestCachePoisoning:
    """A poisoned on-disk entry must degrade to recomputation.

    Torn writes can't happen (put() is atomic), but a cache directory
    shared over NFS, hit by a disk-full mid-copy, or corrupted by an
    unrelated process can still hand the runner garbage; the sweep's
    results must not change.
    """

    def test_truncated_entry_is_discarded_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(_square, {"x": 7})
        cache.put(key, 49)
        path = cache._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # partial copy
        runner = SweepRunner(workers=0, cache=cache)
        assert runner.map(_square, [{"x": 7}]) == [49]
        assert runner.executed == 1  # recomputed, not served from cache
        assert cache.misses >= 1
        hit, value = cache.get(key)  # and the entry was repaired
        assert hit and value == 49

    def test_poisoned_scenario_outcome_recomputes_identically(self, tmp_path):
        from repro.verify import outcome_signature, run_scenario

        params = {"horizon": 0.2, "seed": 3, "telemetry": "recorder"}
        cache = ResultCache(tmp_path)
        clean = SweepRunner(workers=1, cache=cache).map(run_scenario, [params])
        cache._path(cache.key(run_scenario, params)).write_bytes(
            b"\x80\x04poison"
        )
        recomputed = SweepRunner(
            workers=1, cache=ResultCache(tmp_path)
        ).map(run_scenario, [params])
        assert outcome_signature(recomputed[0]) == outcome_signature(clean[0])


# -- trace parameters: inherited by the workers, keyed by content ------------

def make_trace(**meta):
    return Trace(
        times=[0.0, 1.0, 2.5, 2.5, 10.0],
        lbns=[100, 200, 100, 300, 50],
        sectors=[8, 16, 8, 32, 8],
        is_write=[False, True, False, False, True],
        **meta,
    )


def _trace_stats(trace, factor=1):
    if isinstance(trace, Trace):
        last = trace.times[-1]
    else:  # a StoredTrace
        last = trace.chunk(trace.chunk_count - 1).times[-1]
    return (len(trace), float(last), trace.digest()[:12], factor, os.getpid())


def _flaky_trace(sentinel, trace, crash=False):
    """Kills its worker once, then succeeds on the retry."""
    if crash and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return len(trace)


def _without_pids(results):
    assert all(r[-1] != os.getpid() for r in results)
    return [r[:-1] for r in results]


class TestTraceParameters:
    def test_parallel_results_match_serial(self):
        trace = generate_trace("MSRsrc11", duration=60.0, seed=5)
        params = [{"trace": trace, "factor": i} for i in range(4)]
        serial = SweepRunner(workers=0).map(_trace_stats, params)
        pooled = SweepRunner(workers=2).map(_trace_stats, params)
        assert [r[:-1] for r in serial] == _without_pids(pooled)

    def test_stored_trace_parallel_matches_serial(self, tmp_path):
        trace = generate_trace("MSRsrc11", duration=60.0, seed=5)
        stored = write_trace(trace, tmp_path / "store", chunk_requests=512)
        assert stored.chunk_count > 1
        params = [{"trace": stored, "factor": i} for i in range(4)]
        serial = SweepRunner(workers=0).map(_trace_stats, params)
        pooled = SweepRunner(workers=2).map(_trace_stats, params)
        assert [r[:-1] for r in serial] == _without_pids(pooled)
        assert serial[0][2] == trace.digest()[:12]

    def test_worker_crash_retry_still_sees_the_trace(self, tmp_path):
        trace = make_trace()
        sentinel = str(tmp_path / "crashed-once")
        params = [
            {"sentinel": sentinel, "trace": trace, "crash": i == 1}
            for i in range(4)
        ]
        runner = SweepRunner(workers=2, retry=_NO_BACKOFF)
        assert runner.map(_flaky_trace, params) == [len(trace)] * 4
        assert runner.retries == 1


class TestTraceCacheKeys:
    def test_canonicalize_uses_content_digest(self):
        trace = make_trace(name="a")
        assert canonicalize(trace) == ("trace", trace.digest())

    def test_same_name_different_content_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        t1 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        t2 = generate_trace("MSRsrc11", duration=60.0, seed=2)
        assert cache.key(_trace_stats, {"trace": t1}) != cache.key(
            _trace_stats, {"trace": t2}
        )

    def test_same_content_same_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        t1 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        t2 = generate_trace("MSRsrc11", duration=60.0, seed=1)
        assert t1 is not t2
        assert cache.key(_trace_stats, {"trace": t1}) == cache.key(
            _trace_stats, {"trace": t2}
        )

    def test_keys_unchanged_since_the_executor_pool(self, tmp_path):
        # Computed at the commit before SweepRunner moved onto the
        # supervised workers: a cache directory written there is served
        # whole by this code (same version, same canonical forms).
        assert repro.__version__ == "1.10.0"
        params = {
            "trace": make_trace(name="a", capacity_sectors=4096),
            "horizon": 1.5,
            "seed": 3,
            "cache_bug": False,
            "foreground": None,
            "durations": np.arange(6, dtype=float) / 4,
            "sizes": [65536, 131072],
        }
        assert ResultCache(tmp_path).key(detection_sweep_task, params) == (
            "6d5be6e382ee53e984ad997a47487be138590df7a949a823e2667aab43306a76"
        )


class TestSharedArrayKeys:
    """One ``map`` hashes an array its tasks share once, not per task."""

    def test_a_three_task_map_hashes_one_durations_array_once(
        self, tmp_path, monkeypatch
    ):
        from types import SimpleNamespace

        import repro.parallel.cache as cache_module

        durations = np.random.default_rng(5).exponential(1.0, size=10_000)
        params = [{"values": durations, "scale": s, "seed": 1} for s in (1, 2, 3)]
        hashed = []

        def sha256(data=b""):
            hashed.append(bytes(data) == durations.tobytes())
            return hashlib.sha256(data)

        monkeypatch.setattr(
            cache_module, "hashlib", SimpleNamespace(sha256=sha256)
        )
        results = SweepRunner(workers=0, cache=ResultCache(tmp_path)).map(
            _noisy_dot, params
        )
        assert sum(hashed) == 1
        monkeypatch.undo()

        cache = ResultCache(tmp_path)  # every key is the unmemoised key
        assert [cache.get(cache.key(_noisy_dot, p)) for p in params] == [
            (True, result) for result in results
        ]

    def test_the_memo_holds_what_it_keys(self):
        memo = {}
        forms = [canonicalize(np.arange(n, dtype=float), memo) for n in (3, 4)]
        assert forms == [canonicalize(np.arange(n, dtype=float)) for n in (3, 4)]
        assert len(memo) == 2  # the first array lives on: its id is not reused
        assert all(memo[id(held)] == (held, form) for held, form in memo.values())


# -- one process pool --------------------------------------------------------


def test_supervise_is_the_only_process_fan_out():
    """``multiprocessing`` enters through ``parallel/supervise.py`` alone."""
    root = Path(repro.__file__).parent
    banned = ("concurrent.futures.process", "ProcessPoolExecutor", "shared_memory")
    importers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                assert not any(word in name for word in banned), (path, name)
                if name.split(".")[0] == "multiprocessing":
                    importers.add(str(path.relative_to(root)))
    assert importers == {os.path.join("parallel", "supervise.py")}
