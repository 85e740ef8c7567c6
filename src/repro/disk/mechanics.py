"""Seek and rotation timing models.

The seek model is the standard three-parameter curve used throughout
the disk-modelling literature (e.g. DiskSim): short seeks are dominated
by arm acceleration (``sqrt`` regime) and long seeks by the coast phase
(linear regime).  We fit ``t(d) = a + b*sqrt(d) + c*d`` through the
drive's published track-to-track, average and full-stroke seek times.

The rotation model treats the spindle as perfectly constant-speed, so
the platter angle is a pure function of absolute time — no per-drive
phase state is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SeekModel:
    """Seek-time curve ``t(d) = a + b*sqrt(d) + c*d`` for d >= 1.

    Build with :meth:`from_specs`; the raw coefficients are exposed for
    tests.
    """

    a: float
    b: float
    c: float
    cylinders: int

    @classmethod
    def from_specs(
        cls,
        track_to_track: float,
        average: float,
        full_stroke: float,
        cylinders: int,
    ) -> "SeekModel":
        """Fit the curve through three published seek figures.

        Parameters
        ----------
        track_to_track:
            Seek time for a 1-cylinder move (seconds).
        average:
            Average seek time, interpreted as the time for a seek of one
            third of the stroke (the mean seek distance of uniformly
            random requests).
        full_stroke:
            Time to sweep the full stroke (seconds).
        cylinders:
            Number of cylinders.
        """
        if not 0 < track_to_track <= average <= full_stroke:
            raise ValueError(
                "need 0 < track_to_track <= average <= full_stroke, got "
                f"{track_to_track}, {average}, {full_stroke}"
            )
        if cylinders < 3:
            raise ValueError(f"too few cylinders to fit a seek curve: {cylinders}")
        d1 = 1.0
        d2 = cylinders / 3.0
        d3 = float(cylinders - 1)
        matrix = np.array(
            [
                [1.0, np.sqrt(d1), d1],
                [1.0, np.sqrt(d2), d2],
                [1.0, np.sqrt(d3), d3],
            ]
        )
        times = np.array([track_to_track, average, full_stroke])
        a, b, c = np.linalg.solve(matrix, times)
        return cls(a=float(a), b=float(b), c=float(c), cylinders=cylinders)

    def time(self, distance: int) -> float:
        """Seek time in seconds for a move of ``distance`` cylinders."""
        if distance < 0:
            raise ValueError(f"negative seek distance: {distance}")
        if distance == 0:
            return 0.0
        # Python floats, not numpy scalars: ``math.sqrt`` is correctly
        # rounded like ``np.sqrt`` and the terms are summed in the same
        # order, so the result is the same double at an eighth of the cost.
        t = self.a + self.b * math.sqrt(distance) + self.c * distance
        # The fitted curve could dip below zero near d=1 for extreme
        # spec combinations; clamp at zero.  No preset reaches the clamp:
        # on all five, full size or shrunk to 30, 100 or 1000 cylinders,
        # the curve's minimum is the track-to-track time.
        return 0.0 if t < 0.0 else t


@dataclass(frozen=True)
class RotationModel:
    """Constant-speed spindle."""

    rpm: float
    #: Seconds per revolution, computed once at construction.
    period: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ValueError(f"rpm must be positive: {self.rpm}")
        object.__setattr__(self, "period", 60.0 / self.rpm)

    def angle_at(self, time: float) -> float:
        """Platter angle (fraction of a revolution) at absolute ``time``."""
        return (time / self.period) % 1.0

    def latency_to(self, target_angle: float, time: float) -> float:
        """Seconds until the head is over ``target_angle``, from ``time``.

        Zero if the target is exactly under the head; otherwise the
        fraction of a revolution still to come.
        """
        gap = (target_angle - self.angle_at(time)) % 1.0
        return gap * self.period

    def transfer_time(self, sectors: int, sectors_per_track: int) -> float:
        """Media time to sweep ``sectors`` contiguous sectors on one track."""
        if sectors < 0:
            raise ValueError(f"negative sector count: {sectors}")
        if sectors > sectors_per_track:
            raise ValueError(
                f"{sectors} sectors exceed one track ({sectors_per_track})"
            )
        return (sectors / sectors_per_track) * self.period
