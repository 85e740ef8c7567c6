"""Trace replay with scrubbers: response-time CDFs (Fig. 7) and the
Table III full-stack validation runs.

Replays a (synthetic or real) trace open-loop against the simulated
stack with one of three scrubbing configurations — none, a
CFQ-scheduled scrubber, or the Waiting scrubber — and reports the
foreground response-time distribution plus the scrubber's achieved
rate, which is exactly what the paper's Fig. 7 legend shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk.models import DriveSpec
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
) -> ReplayResult:
    """Replay ``trace`` with an optional scrubber.

    ``trace`` may be an in-memory :class:`Trace` or a
    :class:`~repro.traces.store.StoredTrace` — the latter streams
    zero-copy from its memory-mapped chunk files, its header digest
    feeds the result without re-hashing, and only one chunk is resident
    at a time.

    Exactly one of ``scrubber`` (CFQ-scheduled, Fig. 7 style) and
    ``waiting`` (the Waiting scrubber; keys ``threshold`` and
    ``request_bytes``, any other key is a ``ValueError``) may be given;
    neither replays the bare trace.
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
