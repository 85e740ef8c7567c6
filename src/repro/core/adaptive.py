"""Scrub request-size schedules (paper Section V-C).

Once the Waiting policy starts firing, the scrubber must choose a size
for each request.  The paper compares:

* **fixed** — one size for the whole interval (the winner);
* **exponential** — multiply the size by ``a`` after every request
  completed without a collision;
* **linear** — multiply by ``a`` and add ``b``;
* **swapping** — start at the optimal fixed size, switch to the
  maximum allowed size after ``switch_after`` seconds of firing (the
  paper found the optimal switch time to be infinity).

All schedules are pure functions of (request index, elapsed firing
time) so the slowdown simulator can replay them deterministically.
Sizes are clamped to ``cap`` — the largest size whose service time
stays within the administrator's *maximum* tolerable slowdown — and
rounded to whole sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.commands import SECTOR_SIZE


def _round_sectors(size_bytes: float) -> int:
    """Round a byte size to a whole positive number of sectors."""
    sectors = max(1, int(round(size_bytes / SECTOR_SIZE)))
    return sectors * SECTOR_SIZE


class SizeSchedule:
    """Base class: per-request scrub sizes within one idle interval."""

    name = "schedule"

    def size_at(self, index: int, elapsed: float) -> int:
        """Size (bytes) of request ``index`` after ``elapsed`` seconds of firing."""
        raise NotImplementedError

    @property
    def max_size(self) -> int:
        """Largest size the schedule can ever emit."""
        raise NotImplementedError

    def constant_until(self, index: int, elapsed: float) -> float:
        """Firing time before which every request from ``index`` on has
        the size of request ``index`` after ``elapsed`` seconds.

        The slowdown simulator adds such a stretch's service times as
        one array.  The default, ``elapsed``, promises nothing past
        request ``index``.
        """
        return elapsed


@dataclass(frozen=True)
class FixedSchedule(SizeSchedule):
    """The paper's recommendation: a single fixed request size."""

    size: int
    name = "fixed"

    def __post_init__(self) -> None:
        if self.size < SECTOR_SIZE:
            raise ValueError(f"size must be at least one sector: {self.size}")

    def size_at(self, index: int, elapsed: float) -> int:
        return _round_sectors(self.size)

    @property
    def max_size(self) -> int:
        return _round_sectors(self.size)


@dataclass(frozen=True)
class ExponentialSchedule(SizeSchedule):
    """``size_k = min(start * a^k, cap)``."""

    start: int
    factor: float
    cap: int
    name = "exponential"

    def __post_init__(self) -> None:
        if self.start < SECTOR_SIZE or self.cap < self.start:
            raise ValueError("need SECTOR_SIZE <= start <= cap")
        if self.factor <= 1.0:
            raise ValueError(f"factor must exceed 1: {self.factor}")

    def size_at(self, index: int, elapsed: float) -> int:
        size = self.start * self.factor ** index
        return _round_sectors(min(size, self.cap))

    @property
    def max_size(self) -> int:
        return _round_sectors(self.cap)


@dataclass(frozen=True)
class LinearSchedule(SizeSchedule):
    """``size_{k+1} = a * size_k + b`` (closed form evaluated per index)."""

    start: int
    factor: float
    increment: int
    cap: int
    name = "linear"

    def __post_init__(self) -> None:
        if self.start < SECTOR_SIZE or self.cap < self.start:
            raise ValueError("need SECTOR_SIZE <= start <= cap")
        if self.factor < 1.0 or self.increment < 0:
            raise ValueError("factor must be >= 1 and increment >= 0")
        if self.factor == 1.0 and self.increment == 0:
            raise ValueError("degenerate schedule: use FixedSchedule")

    def size_at(self, index: int, elapsed: float) -> int:
        a, b = self.factor, self.increment
        if a == 1.0:
            size = self.start + b * index
        else:
            size = self.start * a**index + b * (a**index - 1) / (a - 1)
        return _round_sectors(min(size, self.cap))

    @property
    def max_size(self) -> int:
        return _round_sectors(self.cap)


@dataclass(frozen=True)
class SwappingSchedule(SizeSchedule):
    """Fixed ``start`` size, then the cap after ``switch_after`` seconds.

    ``switch_after=inf`` degenerates to fixed — which is exactly the
    optimum the paper found.
    """

    start: int
    cap: int
    switch_after: float
    name = "swapping"

    def __post_init__(self) -> None:
        if self.start < SECTOR_SIZE or self.cap < self.start:
            raise ValueError("need SECTOR_SIZE <= start <= cap")
        if self.switch_after < 0:
            raise ValueError(f"switch_after must be non-negative: {self.switch_after}")

    def size_at(self, index: int, elapsed: float) -> int:
        if elapsed >= self.switch_after:
            return _round_sectors(self.cap)
        return _round_sectors(self.start)

    def constant_until(self, index: int, elapsed: float) -> float:
        return self.switch_after

    @property
    def max_size(self) -> int:
        return _round_sectors(self.cap)
