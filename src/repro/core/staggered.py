"""Staggered scrubbing (Oprea & Juels, FAST'10; paper Section II, IV).

The disk is divided into ``R`` regions, each partitioned into segments
of one request.  The scrubber reads the *first* segment of every
region in LBN order, then the *second* segment of every region, and so
on — quickly probing the whole disk surface each round so a bursty
cluster of latent sector errors is detected after roughly ``1/S`` of a
full pass instead of (on average) half of one.

Mechanically, consecutive requests jump one region forward: a short
seek plus roughly half a rotation, which for enough regions (small
jumps) is *cheaper* than the full rotation a sequential ``VERIFY``
stream pays — the paper's Fig. 5b crossover.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithm import Extent, ScrubAlgorithm


class StaggeredScrub(ScrubAlgorithm):
    """Region-staggered scrub order.

    Parameters
    ----------
    regions:
        Number of regions ``R``.  One region degenerates to sequential
        scrubbing (and the implementation then behaves identically).
    """

    def __init__(self, regions: int = 128) -> None:
        if regions <= 0:
            raise ValueError(f"regions must be positive: {regions}")
        self.regions = regions
        self._total = 0
        self._step = 0
        self._region_sectors = 0
        self._round = 0
        self._region = 0

    def reset(self, total_sectors: int, request_sectors: int) -> None:
        if total_sectors <= 0 or request_sectors <= 0:
            raise ValueError("sector counts must be positive")
        self._total = total_sectors
        self._step = request_sectors
        # Ceil so regions cover the disk; the last region may be short.
        self._region_sectors = -(-total_sectors // self.regions)
        self._round = 0
        self._region = 0

    @property
    def rounds_per_pass(self) -> int:
        """Number of staggering rounds in a full pass."""
        return -(-self._region_sectors // self._step) if self._step else 0

    def next_extent(self) -> Optional[Extent]:
        while self._round < self.rounds_per_pass:
            if self._region >= self.regions:
                self._region = 0
                self._round += 1
                continue
            lbn = (
                self._region * self._region_sectors + self._round * self._step
            )
            self._region += 1
            region_end = min(
                (lbn // self._region_sectors + 1) * self._region_sectors,
                self._total,
            )
            if lbn >= self._total or lbn >= region_end:
                continue  # short final region already exhausted
            sectors = min(self._step, region_end - lbn)
            return lbn, sectors
        return None
