"""Parallel sweep execution with persistent result caching.

The repo's expensive artifacts are all *embarrassingly parallel*
parameter sweeps — optimizer size grids, Fig. 14 policy matrices,
Fig. 15 sizing curves.  This package provides:

* :class:`SweepRunner` — deterministic per-task seeds, the result
  cache and input-order results around a batch of tasks; cache misses
  run in process or on :class:`SupervisedRunner`'s workers, and parallel
  output is bit-identical to serial;
* :class:`SupervisedRunner` — the one process fan-out, for sweeps and
  long campaigns alike: a fixed set of forked worker processes that
  inherit the task function and parameters and are fed one task attempt
  at a time (killed and re-forked on any fault), heartbeat and hung-task
  detection, :class:`RetryPolicy` backoff with seeded jitter, straggler
  re-dispatch, and per-task :class:`TaskOutcome` reporting instead of
  batch-poisoning failures;
* :class:`ResultCache` — on-disk memoisation keyed on (task function,
  canonicalized parameters, library version) with self-verifying
  entries (corrupt checkpoints are evicted, not fatal), so re-running
  a sweep with unchanged inputs never re-simulates;
* :func:`derive_seed` / :func:`canonicalize` — the deterministic
  building blocks, exported for tests and custom sweeps.
"""

from repro import _lazy

_EXPORTS = {
    "CACHE_DIR_ENV": ".cache",
    "ResultCache": ".cache",
    "RetryPolicy": ".supervise",
    "SupervisedRunner": ".supervise",
    "SweepRunner": ".runner",
    "SweepTaskError": ".runner",
    "TaskOutcome": ".supervise",
    "canonicalize": ".cache",
    "default_cache_dir": ".cache",
    "derive_seed": ".cache",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
