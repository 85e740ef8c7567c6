"""Fan independent sweep tasks across worker processes.

:class:`SweepRunner` executes a batch of keyword-argument dicts against
one task function, optionally across a ``ProcessPoolExecutor`` and
optionally backed by a :class:`~repro.parallel.cache.ResultCache`.
Results always come back in input order, and a parallel run is
bit-identical to a serial one: every task is independent, seeds are
derived deterministically per task *index* (not per worker), and no
worker-local state leaks into results.

Tasks that cannot be pickled (lambdas, closures, open handles in the
parameters) transparently fall back to in-process serial execution, so
callers never need two code paths.

Trace parameters ship zero-copy: any top-level
:class:`~repro.traces.record.Trace` value in a task's kwargs is
exported once per distinct trace into a shared-memory segment
(:class:`~repro.traces.shm.TraceArrays`) and replaced by its small
:class:`~repro.traces.shm.TraceHandle` for the trip through the pool;
the worker trampoline re-materialises a zero-copy view before calling
the task function.  Cache keys are computed on the *original*
parameters (the trace canonicalizes to its content digest), segments
are only created for cache misses, and a ``try/finally`` around the
pool guarantees every segment is unlinked on success, worker crash,
and ``KeyboardInterrupt``.

A worker that *dies* (segfault, OOM kill, ``os._exit``) poisons the
whole ``ProcessPoolExecutor``: every outstanding future raises
``BrokenProcessPool`` and, naively, a single bad parameter set aborts
the entire sweep with no indication of which task was at fault.
:meth:`SweepRunner.map` instead retries each affected task on a fresh
single-worker pool — tasks that merely shared the poisoned pool
succeed there — under a configurable
:class:`~repro.parallel.supervise.RetryPolicy` (max attempts,
exponential backoff, seeded jitter; the default reproduces the legacy
single immediate retry), and raises a structured
:class:`SweepTaskError` naming the reproducibly-fatal parameter sets
once a task has exhausted its attempts.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.parallel.cache import ResultCache


class SweepTaskError(RuntimeError):
    """Sweep tasks crashed their worker process on every attempt.

    Raised only after every victim of a broken pool got clean retries
    on fresh workers (one per attempt allowed by the retry policy); the
    tasks listed here killed each of those workers too, so the crash is
    attributable to their parameters.
    """

    def __init__(self, failures: List[Tuple[int, dict]]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"task {index} {params!r}" for index, params in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep task(s) crashed their worker "
            f"after a retry on a fresh process: {detail}"
        )


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed per-task seed.

    Hash-derived (SHA-256 of ``base_seed:index``) rather than
    ``base_seed + index`` so neighbouring tasks get statistically
    independent streams; identical for a given (base, index) pair on
    every platform and process, which is what makes parallel sweeps
    reproducible.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # non-negative int64


def _call(fn: Callable, kwargs: dict) -> Any:
    """Top-level trampoline (must be picklable for the process pool).

    Resolves any :class:`TraceHandle` values back into zero-copy
    :class:`Trace` views, and any
    :class:`~repro.traces.store.StoredTraceRef` into an opened
    :class:`~repro.traces.store.StoredTrace` (the file page cache is
    the shared memory there — workers map the same chunk pages), before
    calling the task; shm attachments are unmapped afterwards
    (tolerating results that pin the buffers — see
    :mod:`repro.traces.shm`).
    """
    from repro.traces.shm import TraceArrays, TraceHandle
    from repro.traces.store import StoredTraceRef

    attachments = []
    resolved = kwargs
    try:
        for key, value in kwargs.items():
            if isinstance(value, TraceHandle):
                arrays = TraceArrays.attach(value)
                attachments.append(arrays)
                if resolved is kwargs:
                    resolved = dict(kwargs)
                resolved[key] = arrays.as_trace()
            elif isinstance(value, StoredTraceRef):
                if resolved is kwargs:
                    resolved = dict(kwargs)
                resolved[key] = value.open()
        return fn(**resolved)
    finally:
        del resolved
        for arrays in attachments:
            arrays.close()


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


class SweepRunner:
    """Runs independent sweep tasks, in parallel and/or from cache.

    Parameters
    ----------
    workers:
        Process count.  ``None`` uses ``os.cpu_count()``; ``0`` or
        ``1`` runs serially in-process (still using the cache).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    base_seed:
        When set, :meth:`map` can inject ``derive_seed(base_seed, i)``
        into each task (see ``seed_param``).
    retry:
        :class:`~repro.parallel.supervise.RetryPolicy` governing how
        broken-pool victims are retried on fresh workers.  Default:
        :data:`~repro.parallel.supervise.LEGACY_RETRY` (two attempts,
        no backoff) — the pre-PR 7 behaviour.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        base_seed: Optional[int] = None,
        telemetry=None,
        retry=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        if retry is None:
            from repro.parallel.supervise import LEGACY_RETRY as retry
        self.retry = retry
        self.workers = int(workers)
        self.cache = cache
        self.base_seed = base_seed
        #: Tasks actually executed (cache misses) over this runner's life.
        self.executed = 0
        #: Extra attempts spent re-running broken-pool victims.
        self.retries = 0
        #: Optional telemetry sink metering the sweep itself (tasks
        #: mapped/executed/cache-served).  Task-internal telemetry rides
        #: inside the results — see :meth:`merge_task_telemetry`.
        self.telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )

    @staticmethod
    def _substitute_traces(pending: List[tuple], exported: List) -> List[tuple]:
        """Replace top-level ``Trace`` kwargs with shared-memory handles.

        One segment per *distinct* trace object (an 8-task sweep over
        one trace exports it once, not 8 times); every created
        :class:`TraceArrays` is appended to ``exported`` for the
        caller's ``finally`` teardown.  Only runs for tasks headed to
        the pool — cache hits never reach here, so a fully-cached
        sweep creates no segments at all.
        """
        from repro.traces.record import Trace
        from repro.traces.shm import TraceArrays
        from repro.traces.store import StoredTrace

        handles = {}  # id(trace) -> TraceHandle | StoredTraceRef
        substituted = []
        for index, key, params in pending:
            shipped = None
            for name, value in params.items():
                if isinstance(value, Trace):
                    handle = handles.get(id(value))
                    if handle is None:
                        arrays = TraceArrays.from_trace(value)
                        exported.append(arrays)
                        handle = handles[id(value)] = arrays.handle
                    if shipped is None:
                        shipped = dict(params)
                    shipped[name] = handle
                elif isinstance(value, StoredTrace):
                    # Already on disk: no segment to export — the tiny
                    # picklable ref crosses the pool and workers mmap
                    # the same chunk files (page cache is the sharing).
                    if shipped is None:
                        shipped = dict(params)
                    shipped[name] = value.ref()
            substituted.append((index, key, shipped if shipped is not None else params))
        return substituted

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    def map(
        self,
        fn: Callable,
        param_sets: Sequence[dict],
        seed_param: Optional[str] = None,
    ) -> List[Any]:
        """Return ``[fn(**params) for params in param_sets]``, accelerated.

        Parameters
        ----------
        fn:
            The task function.  Must be a module-level callable for the
            process pool (and for stable cache keys); anything else
            still works but runs serially and uncached-by-identity.
        param_sets:
            One kwargs dict per task.  Dicts are copied, never mutated.
            Flat picklable values only — which is also how the engine
            backend travels: tasks that take a ``kernel`` key (e.g.
            ``detection_sweep_task``, ``replay_slowdown_task``) carry it
            here like any other parameter, and it participates in cache
            keys the same way.  Because both backends are bit-identical,
            a cache entry produced under one kernel is equally valid for
            the other; the key still separates them so an A/B sweep
            never serves one side from the other's cache.
        seed_param:
            When given (and ``base_seed`` is set), each task that does
            not already carry this key gets
            ``params[seed_param] = derive_seed(base_seed, index)``.
            The injected seed participates in the cache key, so cached
            and fresh runs see identical randomness.
        """
        tasks: List[dict] = []
        for index, params in enumerate(param_sets):
            params = dict(params)
            if (
                seed_param is not None
                and self.base_seed is not None
                and seed_param not in params
            ):
                params[seed_param] = derive_seed(self.base_seed, index)
            tasks.append(params)

        results: List[Any] = [None] * len(tasks)
        previous_retries = self.retries
        pending: List[tuple] = []  # (index, cache key, params)
        for index, params in enumerate(tasks):
            if self.cache is not None:
                key = self.cache.key(fn, params)
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = value
                    continue
            else:
                key = None
            pending.append((index, key, params))

        if not pending:
            return results

        exported: List = []  # TraceArrays segments owned by this map() call
        try:
            if self.workers > 1 and len(pending) > 1:
                pending = self._substitute_traces(pending, exported)
            use_pool = (
                self.workers > 1
                and len(pending) > 1
                and _picklable(fn)
                and all(_picklable(params) for _, _, params in pending)
            )
            if use_pool:
                max_workers = min(self.workers, len(pending))
                outcomes = []
                victims: List[tuple] = []  # (index, key, params) hit by a broken pool
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = [
                        (index, key, params, pool.submit(_call, fn, params))
                        for index, key, params in pending
                    ]
                    for index, key, params, future in futures:
                        try:
                            outcomes.append((index, key, future.result()))
                        except BrokenProcessPool:
                            victims.append((index, key, params))
                failures: List[Tuple[int, dict]] = []
                for index, key, params in victims:
                    # Retries isolated on fresh workers, governed by the
                    # retry policy: a task that only *shared* the poisoned
                    # pool completes on its first clean worker, while a
                    # genuinely fatal parameter set kills every private
                    # worker the policy grants it.  The pool run above
                    # was attempt 1.
                    attempt = 1
                    while True:
                        if attempt >= self.retry.max_attempts:
                            failures.append((index, params))
                            break
                        delay = self.retry.delay(attempt, index)
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        self.retries += 1
                        try:
                            with ProcessPoolExecutor(max_workers=1) as pool:
                                outcomes.append(
                                    (index, key, pool.submit(_call, fn, params).result())
                                )
                        except BrokenProcessPool:
                            continue
                        break
                if failures:
                    raise SweepTaskError(sorted(failures))
            else:
                outcomes = [
                    (index, key, _call(fn, params)) for index, key, params in pending
                ]
        finally:
            # Unconditional segment teardown: success, SweepTaskError,
            # an ordinary task exception, or KeyboardInterrupt — the
            # shared pages must never outlive the sweep.
            for arrays in exported:
                arrays.cleanup()

        self.executed += len(outcomes)
        for index, key, value in outcomes:
            results[index] = value
            if self.cache is not None and key is not None:
                self.cache.put(key, value)
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter("parallel.tasks").inc(len(tasks))
            metrics.counter("parallel.executed").inc(len(outcomes))
            metrics.counter("parallel.cache_served").inc(
                len(tasks) - len(pending)
            )
            # Attempt accounting: every executed task cost one attempt,
            # plus whatever the broken-pool retry loop spent on top.
            metrics.counter("parallel.attempts").inc(
                len(outcomes) + self.retries - previous_retries
            )
            metrics.counter("parallel.retries").inc(
                self.retries - previous_retries
            )
            metrics.gauge("parallel.workers").set(self.workers)
        return results

    @staticmethod
    def merge_task_telemetry(results: Sequence[Any]) -> dict:
        """Fleet-level metrics summary from per-task result telemetry.

        Each result may carry a ``telemetry`` attribute (or key) holding
        ``{"metrics": <snapshot>, ...}`` — the bundle
        :meth:`repro.telemetry.Recorder.export` produces.  Snapshots are
        merged in **input order**, and
        :func:`~repro.telemetry.metrics.merge_snapshots` is
        order-independent besides, so the summary of a parallel sweep is
        bit-identical to the serial one.
        """
        from repro.telemetry.metrics import merge_snapshots

        snapshots = []
        for result in results:
            bundle = getattr(result, "telemetry", None)
            if bundle is None and isinstance(result, dict):
                bundle = result.get("telemetry")
            if bundle:
                snapshots.append(bundle.get("metrics"))
        return merge_snapshots(snapshots)
