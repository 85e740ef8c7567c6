"""Sequential scrubbing: scan the disk in increasing LBN order.

This is the algorithm production systems use (paper Section I): simple,
and each request is adjacent to the previous one.  Note that adjacency
does *not* make back-to-back ``VERIFY`` cheap — completion propagation
costs a missed rotation (Section IV-A) — which is exactly what the
staggered comparison in Fig. 5 demonstrates.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithm import Extent, ScrubAlgorithm


class SequentialScrub(ScrubAlgorithm):
    """Walk LBNs from 0 to the end in fixed-size requests."""

    def __init__(self) -> None:
        self._total = 0
        self._step = 0
        self._next = 0

    def reset(self, total_sectors: int, request_sectors: int) -> None:
        if total_sectors <= 0 or request_sectors <= 0:
            raise ValueError("sector counts must be positive")
        self._total = total_sectors
        self._step = request_sectors
        self._next = 0

    def next_extent(self) -> Optional[Extent]:
        if self._next >= self._total:
            return None
        lbn = self._next
        sectors = min(self._step, self._total - lbn)
        self._next += sectors
        return lbn, sectors
