"""Run independent sweep tasks: from cache, in process, or on forked workers.

:class:`SweepRunner` executes a batch of keyword-argument dicts against
one task function, optionally backed by a
:class:`~repro.parallel.cache.ResultCache`.  Results always come back in
input order, and a parallel run is bit-identical to a serial one: every
task is independent, carries any seed it needs in its own parameters,
and no worker-local state leaks into results.

What is the sweep's own lives here: the cache lookup (on the parameters
as the caller passed them — a trace canonicalizes to its content
digest), input order, and the in-process branch for
``workers <= 1`` or a single cache miss.  Every other batch of misses
runs on :class:`~repro.parallel.supervise.SupervisedRunner`'s forked
workers, the stack's only process fan-out.  **Workers inherit by fork:**
the task function and the whole parameter list — every ``Trace``,
``StoredTrace`` and idle-interval array in it — are the worker's
copy-on-write view of the driver's memory, so lambdas, closures and
unpicklable parameters run in workers like anything else; only a task
index goes out and only the result comes back.  (On a spawn-only
platform the function and the list must pickle, once per worker.)

Two ways to fail, kept apart.  A task that *raises* is deterministic:
it is never retried, the rest of the batch still finishes, and
:meth:`SweepRunner.map` then re-raises the exception of the lowest-index
raiser.  A worker that *dies* under a task (segfault, OOM kill,
``os._exit``, a raised ``SystemExit`` / ``KeyboardInterrupt``) costs
that task — and only that task — an attempt; it is retried on a fresh
fork under the :class:`~repro.parallel.supervise.RetryPolicy`, and a
task out of attempts is named in a :class:`SweepTaskError`.  Either
way every result that did arrive is already in the cache.
"""

from __future__ import annotations

import os
import pickle
import traceback
from functools import partial
from itertools import zip_longest
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.parallel.cache import ResultCache
from repro.parallel.supervise import RetryPolicy, SupervisedRunner, TaskOutcome


class SweepTaskError(RuntimeError):
    """Sweep tasks whose worker process died on every attempt.

    Only the task a dead worker was running is charged the attempt, and
    each retry runs on a fresh fork, so the deaths are attributable to
    the parameters listed in :attr:`failures` (``(index, params)``).
    ``notes`` are one string per failure for the message: attempts
    spent and the last death observed.
    """

    def __init__(
        self, failures: List[Tuple[int, dict]], notes: Sequence[str] = ()
    ) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"task {index} {params!r}{note}"
            for (index, params), note in zip_longest(
                self.failures, notes, fillvalue=""
            )
        )
        super().__init__(
            f"{len(self.failures)} sweep task(s) killed their worker "
            f"process on every attempt: {detail}"
        )


class _Raised(NamedTuple):
    """A task's exception and its formatted traceback, carried as a value."""

    exc: Exception
    trace: str


def _guard(task, /, **kwargs):
    """Worker-side trampoline: a task's ``Exception`` becomes a result.

    Supervision then books the attempt ``ok`` — a deterministic raise is
    never retried or backed off — and :meth:`SweepRunner.map` re-raises
    it.  An exception that does not survive pickling degrades to a
    ``RuntimeError`` naming its type.  ``task`` is positional-only so a
    task kwarg of that name cannot collide.
    """
    try:
        return task(**kwargs)
    except Exception as exc:
        trace = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return _Raised(exc, trace)


class SweepRunner:
    """Runs independent sweep tasks, in parallel and/or from cache.

    Parameters
    ----------
    workers:
        Process count.  ``None`` uses ``os.cpu_count()``; ``0`` or
        ``1`` runs serially in-process (still using the cache).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` metering
        the sweep itself (``parallel.*``: tasks mapped, executed,
        cache-served) and, through the worker pool it builds,
        ``supervise.*``.  Task-internal telemetry rides inside the
        results — see :meth:`merge_task_telemetry`.
    retry:
        :class:`~repro.parallel.supervise.RetryPolicy` for tasks whose
        worker died.  Default: ``RetryPolicy()`` — three attempts with
        jittered exponential backoff, the supervised default.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        metrics=None,
        retry=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        self.retry = retry if retry is not None else RetryPolicy()
        self.workers = int(workers)
        self.cache = cache
        #: Tasks actually executed (cache misses) over this runner's life.
        self.executed = 0
        #: Extra attempts spent re-running tasks whose worker died.
        self.retries = 0
        self.metrics = metrics

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    def map(self, fn: Callable, param_sets: Sequence[dict]) -> List[Any]:
        """Return ``[fn(**params) for params in param_sets]``, accelerated.

        Parameters
        ----------
        fn:
            The task function.  A module-level callable gives stable
            cache keys; anything else (lambda, closure, bound method)
            runs just the same, workers included.
        param_sets:
            One kwargs dict per task.  Dicts are copied, never mutated.

        Each result is stored in the cache the moment it lands, so a
        sweep that ends in a task exception, a :class:`SweepTaskError`
        or Ctrl-C keeps everything it finished; no worker process
        outlives the call.
        """
        tasks = [dict(params) for params in param_sets]

        results: List[Any] = [None] * len(tasks)
        pending: List[Tuple[int, Optional[str]]] = []  # (index, cache key)
        for index, params in enumerate(tasks):
            key = None
            if self.cache is not None:
                key = self.cache.key(fn, params)
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = value
                    continue
            pending.append((index, key))
        if not pending:
            return results

        executed_before, retries_before = self.executed, self.retries
        attempts = 0

        def land(index: int, key: Optional[str], value: Any) -> None:
            results[index] = value
            self.executed += 1
            if key is not None:
                self.cache.put(key, value)

        try:
            if self.workers <= 1 or len(pending) == 1:
                for index, key in pending:
                    attempts += 1
                    land(index, key, fn(**tasks[index]))
                return results

            def on_result(outcome: TaskOutcome) -> None:
                nonlocal attempts
                attempts += outcome.attempts
                self.retries += outcome.attempts - 1
                if outcome.ok and not isinstance(outcome.value, _Raised):
                    land(*pending[outcome.index], outcome.value)

            outcomes = SupervisedRunner(
                workers=self.workers, heartbeat_interval=0, retry=self.retry,
                metrics=self.metrics,
            ).map(
                partial(_guard, fn),
                [tasks[index] for index, _ in pending],
                on_result=on_result,
            )
            failures, notes = [], []
            for (index, _), outcome in zip(pending, outcomes):  # index order
                if isinstance(outcome.value, _Raised):
                    raise outcome.value.exc from RuntimeError(
                        f"raised in a sweep worker:\n{outcome.value.trace}"
                    )
                if not outcome.ok:
                    failures.append((index, tasks[index]))
                    notes.append(
                        f" ({outcome.attempts} attempts, last: {outcome.error})"
                    )
            if failures:
                raise SweepTaskError(failures, notes)
            return results
        finally:
            metrics = self.metrics
            if metrics is not None:
                metrics.counter("parallel.tasks").inc(len(tasks))
                metrics.counter("parallel.executed").inc(
                    self.executed - executed_before
                )
                metrics.counter("parallel.cache_served").inc(
                    len(tasks) - len(pending)
                )
                metrics.counter("parallel.attempts").inc(attempts)
                metrics.counter("parallel.retries").inc(
                    self.retries - retries_before
                )
                metrics.gauge("parallel.workers").set(self.workers)

    @staticmethod
    def merge_task_telemetry(results: Sequence[Any]) -> dict:
        """Fleet-level metrics summary from per-task result telemetry.

        Each result may carry a ``telemetry`` attribute (or key) holding
        ``{"metrics": <snapshot>, ...}`` — the bundle
        :meth:`repro.obs.sink.Recorder.export` produces.  Snapshots are
        merged in **input order**, and
        :func:`~repro.obs.metrics.merge_snapshots` is
        order-independent besides, so the summary of a parallel sweep is
        bit-identical to the serial one.
        """
        from repro.obs.metrics import merge_snapshots

        snapshots = []
        for result in results:
            bundle = getattr(result, "telemetry", None)
            if bundle is None and isinstance(result, dict):
                bundle = result.get("telemetry")
            if bundle:
                snapshots.append(bundle.get("metrics"))
        return merge_snapshots(snapshots)
