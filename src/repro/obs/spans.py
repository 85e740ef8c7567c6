"""Deterministic hierarchical span identity for fleet campaigns.

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
simulation results.  Nothing keeps a span tree while a campaign runs:
:meth:`repro.obs.report.CampaignFold.spans` replays it from the
monitor's event log, as :class:`Span` records in seconds since the
campaign span opened.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

__all__ = ["Span", "span_id"]


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
    """One interval of campaign work; ``sid`` 0 with no width is a marker."""

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
