"""Deterministic hierarchical span tracing for fleet campaigns.

A campaign is a tree of timed work:

.. code-block:: text

    campaign <digest>
    └── shard 3
        └── attempt 1            (a SupervisedRunner launch)
            ├── policy weekly    (kernel phase inside the worker)
            └── policy staggered

Span *identity* must survive resume and re-runs: the same campaign
spec always yields the same span IDs, so traces from a fresh run and
a post-SIGKILL resume can be diffed or overlaid.  :func:`span_id`
therefore derives a 64-bit ID from the campaign digest plus the path
of coordinates down the tree — no global counters, no randomness.

Span *timing* is wall clock, which is inherently non-deterministic;
that is fine because spans are an operator surface, never an input to
simulation results.  :class:`SpanRecorder` collects closed spans and
exports them through :func:`repro.obs.trace.encode_events` for
:func:`repro.obs.trace.write_chrome_trace`, so a whole fleet
campaign loads in Perfetto as one flame view: one process row, the
campaign on thread 0, each shard (with its attempts and kernel
phases nested) on its own thread.

Timestamps in the export are seconds since the first span opened, so
the viewer's time axis starts at zero regardless of when the campaign
ran.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.trace import encode_events

__all__ = ["Span", "SpanRecorder", "span_id"]


def span_id(root: str, *path: Union[str, int]) -> int:
    """Deterministic 63-bit span ID for a node of the campaign tree.

    ``root`` is typically the campaign digest; ``path`` alternates
    level names and coordinates, e.g. ``("shard", 3, "attempt", 1,
    "phase", "weekly")``.  Same inputs, same ID — across processes,
    resumes, and Python versions.
    """
    text = root + "".join(f"/{part}" for part in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Span:
    """One open interval of campaign work."""

    __slots__ = ("sid", "name", "category", "tid", "start", "end", "args")

    def __init__(
        self,
        sid: int,
        name: str,
        category: str,
        tid: int,
        start: float,
        args: Optional[dict] = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.category = category
        self.tid = tid
        self.start = start
        self.end: Optional[float] = None
        self.args = dict(args or {})

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """Collects campaign/shard/attempt/phase spans for Perfetto export.

    The recorder is clock-injectable (pass ``clock`` for tests) and
    tolerant of out-of-order lifecycles: finishing an unknown span is
    a no-op, re-opening a live span ID replaces it.  Thread layout in
    the export is deterministic: tid 0 carries the campaign span, tid
    ``shard_index + 1`` carries everything belonging to that shard.
    """

    def __init__(self, root: str, clock=time.monotonic) -> None:
        self.root = root
        self._clock = clock
        self._epoch: Optional[float] = None
        self._open: Dict[int, Span] = {}
        self._closed: List[Span] = []
        self._thread_names: Dict[int, str] = {}

    # -- lifecycle ----------------------------------------------------

    def _now(self) -> float:
        now = self._clock()
        if self._epoch is None:
            self._epoch = now
        return now - self._epoch

    def begin(
        self,
        name: str,
        *path: Union[str, int],
        category: str = "campaign",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> int:
        """Open a span; returns its deterministic ID."""
        sid = span_id(self.root, *path) if path else span_id(self.root, name)
        self._open[sid] = Span(sid, name, category, tid, self._now(), args)
        return sid

    def end(self, *path: Union[str, int], args: Optional[dict] = None) -> None:
        """Close the span at ``path``; unknown paths are ignored."""
        sid = span_id(self.root, *path)
        span = self._open.pop(sid, None)
        if span is None:
            return
        span.end = self._now()
        if args:
            span.args.update(args)
        self._closed.append(span)

    def instant(
        self,
        name: str,
        *,
        category: str = "campaign",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration marker (retry, eviction, SIGKILL...)."""
        span = Span(0, name, category, tid, self._now(), args)
        span.end = span.start
        self._closed.append(span)

    def add_timed(
        self,
        name: str,
        start: float,
        duration: float,
        *path: Union[str, int],
        category: str = "phase",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Insert an already-measured span (e.g. a worker-reported phase).

        ``start`` is seconds on this recorder's relative axis —
        callers re-home worker-local timings onto the recorder's epoch
        before inserting.
        """
        sid = span_id(self.root, *path) if path else 0
        span = Span(sid, name, category, tid, start, args)
        span.end = start + max(0.0, duration)
        self._closed.append(span)

    def name_thread(self, tid: int, name: str) -> None:
        self._thread_names[tid] = name

    # -- export -------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """All closed spans, in completion order."""
        return tuple(self._closed)

    def chrome_events(self, process_name: str = "campaign") -> List[dict]:
        """Flatten to Chrome trace-event dicts on process id 0 (feed
        ``write_chrome_trace``).

        Any still-open spans are exported as if they ended now, so a
        trace written mid-campaign (or after a crash) is still valid.
        """
        now = self._now() if self._epoch is not None else 0.0
        ended = [(span, span.end) for span in self._closed]
        ended += [(span, now) for span in self._open.values()]
        spans, instants = [], []
        for span, end in ended:
            if end == span.start and span.sid == 0:
                instants.append(
                    (span.name, span.category, span.start, span.tid, span.args)
                )
            else:
                spans.append(
                    (
                        span.name, span.category, span.start, end, span.tid,
                        dict(span.args, span_id=f"{span.sid:016x}"),
                    )
                )
        return encode_events(
            process_name, sorted(self._thread_names.items()), spans, instants,
            (), scope="t",
        )
