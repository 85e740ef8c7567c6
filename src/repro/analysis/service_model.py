"""Scrub-request service times as a function of request size.

The trace-driven policy simulations (Fig. 14, 15, Table III) need a
fast scalar model of "how long does one back-to-back sequential VERIFY
of size S take" rather than a full DES run per query.  We *measure*
that on the mechanical :class:`~repro.disk.drive.Drive` once per size
grid point and interpolate: the underlying physics (overheads + missed
rotation + transfer) is piecewise linear in S, so interpolation is
essentially exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.disk.commands import SECTOR_SIZE, DiskCommand
from repro.disk.drive import Drive
from repro.disk.models import DriveSpec

#: Measurement grid: 64 KB to 8 MB.
_GRID = tuple(
    int(k * 1024) for k in (64, 128, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192)
)


class ScrubServiceModel:
    """Interpolated service time per scrub request size.

    Build with :meth:`from_spec` (measures on a fresh drive model) or
    directly from ``(sizes, times)`` pairs.
    """

    def __init__(self, sizes: Sequence[int], times: Sequence[float]) -> None:
        sizes = np.asarray(sizes, dtype=float)
        times = np.asarray(times, dtype=float)
        if len(sizes) != len(times) or len(sizes) < 2:
            raise ValueError("need at least two (size, time) points")
        order = np.argsort(sizes)
        self._sizes = sizes[order]
        self._times = times[order]
        if np.any(np.diff(self._times) < 0):
            raise ValueError("service times must be non-decreasing in size")
        # Slope for linear extrapolation beyond the grid.
        self._slope = (self._times[-1] - self._times[-2]) / (
            self._sizes[-1] - self._sizes[-2]
        )

    @classmethod
    def from_spec(cls, spec: DriveSpec) -> "ScrubServiceModel":
        """Measure back-to-back sequential VERIFY times on a drive model.

        Each grid size runs 4 warm-up and 12 measured commands from 30%
        into the disk (a representative middle zone).
        """
        times = []
        for size in _GRID:
            drive = Drive(spec, cache_enabled=False)
            sectors = max(1, size // SECTOR_SIZE)
            lbn = int(drive.total_sectors * 0.3)
            now, observed = 0.0, []
            for _ in range(4 + 12):
                breakdown = drive.service(DiskCommand.verify(lbn, sectors), now)
                observed.append(breakdown.total)
                now = breakdown.finish + 5e-5
                lbn += sectors
            times.append(float(np.mean(observed[4:])))
        return cls(list(_GRID), times)

    def time(self, request_bytes) -> np.ndarray:
        """Service time (seconds) for one or more request sizes (bytes)."""
        request_bytes = np.asarray(request_bytes, dtype=float)
        if np.any(request_bytes <= 0):
            raise ValueError("request sizes must be positive")
        result = np.interp(request_bytes, self._sizes, self._times)
        beyond = request_bytes > self._sizes[-1]
        if np.any(beyond):
            extra = (request_bytes - self._sizes[-1]) * self._slope
            result = np.where(beyond, self._times[-1] + extra, result)
        return result if result.ndim else float(result)

    def max_size_for_slowdown(self, max_slowdown: float) -> int:
        """Largest whole-sector size whose service time fits ``max_slowdown``.

        This is the paper's footnote constraint: the maximum tolerable
        per-request slowdown caps the scrub request size.
        """
        if max_slowdown <= 0:
            raise ValueError(f"max_slowdown must be positive: {max_slowdown}")
        if self.time(float(SECTOR_SIZE)) > max_slowdown:
            raise ValueError(
                f"even a single-sector request exceeds {max_slowdown}s"
            )
        lo, hi = SECTOR_SIZE, int(self._sizes[-1])
        # Grow the bracket if the grid end still fits.
        while self.time(float(hi)) <= max_slowdown:
            hi *= 2
            if hi > 2**34:  # 16 GB: nothing sensible is this large
                break
        while hi - lo > SECTOR_SIZE:
            mid = (lo + hi) // (2 * SECTOR_SIZE) * SECTOR_SIZE
            if mid in (lo, hi):
                break
            if self.time(float(mid)) <= max_slowdown:
                lo = mid
            else:
                hi = mid
        return lo
