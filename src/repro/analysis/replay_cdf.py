"""Trace replay with scrubbers: response-time CDFs (Fig. 7) and the
Table III full-stack validation runs.

Replays a (synthetic or real) trace open-loop against the simulated
stack with one of three scrubbing configurations — none, a
CFQ-scheduled scrubber, or the Waiting scrubber — and reports the
foreground response-time distribution plus the scrubber's achieved
rate, which is exactly what the paper's Fig. 7 legend shows.

Baseline memoization
--------------------
Every ``mean_slowdown_vs`` comparison needs the *same* no-scrub
baseline, and a Fig. 7 / Fig. 14-style grid re-derives it per
configuration.  :func:`replay_baseline` replays the bare trace once
per (trace digest, drive spec, horizon, idle gate, cache flag) and
serves repeats from an in-process LRU — and, when given a
:class:`~repro.parallel.cache.ResultCache`, from disk across
processes and sessions.  The memo key is content-addressed via
:meth:`Trace.digest`, so regenerated traces that merely share a name
never collide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk.models import PRESETS, DriveSpec
from repro.traces.record import Trace

#: Allowed relative completed-request divergence between two runs of
#: the same trace before ``mean_slowdown_vs`` refuses the comparison.
#: A scrubber can delay a tail of completions past the horizon, but a
#: larger gap means the runs replayed different traces or horizons.
_SLOWDOWN_TAIL_TOLERANCE = 0.25


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one replay experiment."""

    horizon: float
    fg_response_times: np.ndarray
    fg_requests: int
    scrub_bytes: int
    scrub_requests: int
    #: Content digest of the replayed trace, used to reject
    #: cross-trace ``mean_slowdown_vs`` comparisons (``None`` for
    #: results built before the digest existed, e.g. old pickles).
    trace_digest: Optional[str] = None

    @property
    def scrub_mbps(self) -> float:
        return self.scrub_bytes / self.horizon / 1e6

    @property
    def scrub_requests_per_sec(self) -> float:
        return self.scrub_requests / self.horizon

    def mean_slowdown_vs(self, baseline: "ReplayResult") -> float:
        """Mean extra response time per request against a no-scrub run.

        The comparison is positional — request *i* here against request
        *i* there, mirroring how the paper measures per-request
        slowdown — which is only meaningful when both runs replayed the
        same trace over the same horizon.  Raises ``ValueError`` when
        the trace digests or horizons differ, or when the completed
        counts diverge beyond the tail a scrubber can plausibly delay.
        """
        if (
            self.trace_digest is not None
            and baseline.trace_digest is not None
            and self.trace_digest != baseline.trace_digest
        ):
            raise ValueError(
                "cannot compare slowdown across different traces: "
                f"{self.trace_digest[:12]} vs {baseline.trace_digest[:12]}"
            )
        if self.horizon != baseline.horizon:
            raise ValueError(
                "cannot compare slowdown across different horizons: "
                f"{self.horizon} vs {baseline.horizon}"
            )
        mine = len(self.fg_response_times)
        theirs = len(baseline.fg_response_times)
        n = min(mine, theirs)
        if n == 0:
            raise ValueError("no common completed requests to compare")
        if abs(mine - theirs) > _SLOWDOWN_TAIL_TOLERANCE * max(mine, theirs):
            raise ValueError(
                f"completed-request counts diverge too far ({mine} vs "
                f"{theirs}) for a positional comparison; were these runs "
                "replayed from the same trace and horizon?"
            )
        delta = (
            self.fg_response_times[:n] - baseline.fg_response_times[:n]
        )
        return float(delta.mean())


def replay_with_scrubber(
    trace: Trace,
    spec: DriveSpec,
    scrubber: Optional[ScrubberSetup] = None,
    waiting: Optional[dict] = None,
    horizon: Optional[float] = None,
    idle_gate: float = 0.010,
    cache_enabled: bool = False,
    kernel: str = "reference",
) -> ReplayResult:
    """Replay ``trace`` with an optional scrubber.

    ``trace`` may be an in-memory :class:`Trace` or a
    :class:`~repro.traces.store.StoredTrace` — the latter streams
    zero-copy from its memory-mapped chunk files, its header digest
    feeds the result (and the baseline memo key) without re-hashing,
    and only one chunk is resident at a time.

    Exactly one of ``scrubber`` (CFQ-scheduled, Fig. 7 style) and
    ``waiting`` (the Waiting scrubber; keys ``threshold`` and
    ``request_bytes``, any other key is a ``ValueError``) may be given;
    neither replays the bare trace.

    ``kernel`` selects the engine backend; the backends are
    bit-identical, so it does not participate in the baseline memo key.
    """
    if scrubber is not None and waiting is not None:
        raise ValueError("pass either scrubber or waiting, not both")
    if waiting is not None:
        unknown = sorted(set(waiting) - {"threshold", "request_bytes"})
        if unknown:
            raise ValueError(
                f"unknown waiting key(s) {unknown}; "
                "valid keys are 'threshold' and 'request_bytes'"
            )
        scrubber = ScrubberSetup(
            algorithm="waiting",
            threshold=waiting.get("threshold", 0.1),
            request_bytes=waiting.get("request_bytes", 64 * 1024),
        )
    if horizon is None:
        horizon = trace.duration
    if horizon <= 0:
        raise ValueError("horizon must be positive (empty trace?)")

    stack = ScrubStack(
        spec,
        scrubber,
        idle_gate=idle_gate,
        cache_enabled=cache_enabled,
        kernel=kernel,
    )
    stack.replay(trace)
    stack.run(horizon)
    log, agent = stack.device.log, stack.scrubber
    return ReplayResult(
        horizon=horizon,
        fg_response_times=log.response_times("foreground"),
        fg_requests=log.count("foreground"),
        scrub_bytes=agent.bytes_scrubbed if agent else 0,
        scrub_requests=agent.requests_issued if agent else 0,
        trace_digest=trace.digest(),
    )


#: In-process no-scrub baseline memo, keyed on the full parameter
#: tuple.  Small and LRU: a sweep grid reuses one baseline per
#: (trace, spec, horizon) combination, of which a session has a few.
_BASELINE_MEMO: "OrderedDict[tuple, ReplayResult]" = OrderedDict()
_BASELINE_MEMO_SIZE = 16


def _baseline_key(
    trace: Trace,
    spec: DriveSpec,
    horizon: float,
    idle_gate: float,
    cache_enabled: bool,
) -> tuple:
    from repro.parallel.cache import canonicalize

    return (
        trace.digest(),
        repr(canonicalize(spec)),
        float(horizon).hex(),
        float(idle_gate).hex(),
        bool(cache_enabled),
    )


def clear_baseline_memo() -> None:
    """Drop every in-process memoized baseline (mainly for tests)."""
    _BASELINE_MEMO.clear()


def replay_baseline(
    trace: Trace,
    spec: DriveSpec,
    horizon: Optional[float] = None,
    idle_gate: float = 0.010,
    cache_enabled: bool = False,
    result_cache=None,
    kernel: str = "reference",
) -> ReplayResult:
    """The no-scrub replay of ``trace``, memoized.

    Identical to ``replay_with_scrubber(trace, spec)`` with no
    scrubber, but repeated calls with the same (trace content, spec,
    horizon, idle gate, cache flag) return the memoized result instead
    of re-simulating — in-process via a small LRU, and across
    processes when ``result_cache`` (a
    :class:`~repro.parallel.cache.ResultCache`) is given.
    """
    if horizon is None:
        horizon = trace.duration
    key = _baseline_key(trace, spec, horizon, idle_gate, cache_enabled)
    cached = _BASELINE_MEMO.get(key)
    if cached is not None:
        _BASELINE_MEMO.move_to_end(key)
        return cached
    disk_key = None
    if result_cache is not None:
        disk_key = result_cache.key(
            replay_baseline,
            {
                "trace": trace,
                "spec": spec,
                "horizon": horizon,
                "idle_gate": idle_gate,
                "cache_enabled": cache_enabled,
            },
        )
        hit, value = result_cache.get(disk_key)
        if hit:
            _remember_baseline(key, value)
            return value
    result = replay_with_scrubber(
        trace,
        spec,
        horizon=horizon,
        idle_gate=idle_gate,
        cache_enabled=cache_enabled,
        kernel=kernel,
    )
    if result_cache is not None:
        result_cache.put(disk_key, result)
    _remember_baseline(key, result)
    return result


def _remember_baseline(key: tuple, result: ReplayResult) -> None:
    _BASELINE_MEMO[key] = result
    _BASELINE_MEMO.move_to_end(key)
    while len(_BASELINE_MEMO) > _BASELINE_MEMO_SIZE:
        _BASELINE_MEMO.popitem(last=False)


def replay_slowdown_task(
    trace: Trace,
    drive: str = "ultrastar",
    scrubber: Optional[ScrubberSetup] = None,
    waiting: Optional[dict] = None,
    horizon: Optional[float] = None,
    idle_gate: float = 0.010,
    cache_enabled: bool = False,
    kernel: str = "reference",
) -> dict:
    """Picklable sweep task: one replay config plus its slowdown.

    Runs ``replay_with_scrubber`` for the given configuration and
    compares against the :func:`replay_baseline` no-scrub run — which
    is memoized, so an N-configuration sweep in one process pays for
    the baseline once.  Designed for
    :class:`~repro.parallel.runner.SweepRunner`, whose forked workers
    inherit ``trace`` instead of receiving a copy.
    """
    if drive not in PRESETS:
        raise ValueError(
            f"unknown drive {drive!r}; choose from {sorted(PRESETS)}"
        )
    spec = PRESETS[drive]()
    result = replay_with_scrubber(
        trace,
        spec,
        scrubber=scrubber,
        waiting=waiting,
        horizon=horizon,
        idle_gate=idle_gate,
        cache_enabled=cache_enabled,
        kernel=kernel,
    )
    baseline = replay_baseline(
        trace,
        spec,
        horizon=horizon,
        idle_gate=idle_gate,
        cache_enabled=cache_enabled,
        kernel=kernel,
    )
    return {
        "result": result,
        "mean_slowdown": result.mean_slowdown_vs(baseline),
    }
