"""Per-drive media fault state: which sectors are bad *right now*.

:class:`MediaFaults` turns a static :class:`~repro.faults.plan.FaultPlan`
into live drive state.  Errors activate lazily as the simulation clock
passes their onset; active bad sectors live in a sorted list so a
command's ``[lbn, lbn + sectors)`` range check is a pair of bisections.
Reallocation moves a bad sector to a bounded spare pool (the remapped
sector then reads from the spare and is good again), mirroring how real
drives grow their g-list.

The :class:`~repro.faults.log.ErrorLog` owned here is the single source
of truth for the error lifecycle; the drive, block device and scrubber
all record into it through this object.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional

from repro.faults.log import ErrorLog
from repro.faults.plan import FaultPlan


class MediaFaults:
    """Live latent-sector-error state for one drive.

    Parameters
    ----------
    plan:
        The pre-drawn error schedule.
    spare_sectors:
        Size of the reallocation spare pool; ``reallocate`` fails once
        it is exhausted (the drive would be failed out of the array).
    """

    def __init__(self, plan: FaultPlan, spare_sectors: int = 1024) -> None:
        if spare_sectors < 0:
            raise ValueError(f"spare_sectors negative: {spare_sectors}")
        self.plan = plan
        self.spare_sectors = spare_sectors
        self.spares_used = 0
        #: Lifecycle log.
        self.log = ErrorLog()
        self._schedule = list(plan.errors)  # sorted by (time, lbn)
        self._cursor = 0
        self._active: List[int] = []  # sorted active bad LBNs
        self._onset: Dict[int, float] = {}
        self._remapped: Dict[int, float] = {}

    # -- time advance -----------------------------------------------------------
    def advance(self, now: float) -> None:
        """Activate every planned error with onset at or before ``now``."""
        cursor = self._cursor
        schedule = self._schedule
        while cursor < len(schedule) and schedule[cursor].time <= now:
            error = schedule[cursor]
            cursor += 1
            if error.lbn in self._remapped:
                continue  # remapped before onset: the spare is healthy
            insort(self._active, error.lbn)
            self._onset[error.lbn] = error.time
            self.log.record_injected(error.time, error.lbn)
        self._cursor = cursor

    def finalize(self, now: float) -> None:
        """Flush remaining activations (call once at the end of a run)."""
        self.advance(now)

    # -- queries ----------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Bad sectors whose onset has passed and that are not remapped."""
        return len(self._active)

    @property
    def remapped_count(self) -> int:
        return len(self._remapped)

    def first_bad(self, lbn: int, sectors: int, now: float) -> Optional[int]:
        """Lowest active bad LBN inside ``[lbn, lbn + sectors)``, if any."""
        self.advance(now)
        index = bisect_left(self._active, lbn)
        if index < len(self._active) and self._active[index] < lbn + sectors:
            return self._active[index]
        return None

    def bad_in_range(self, lbn: int, sectors: int, now: float) -> List[int]:
        """All active bad LBNs inside ``[lbn, lbn + sectors)``."""
        self.advance(now)
        lo = bisect_left(self._active, lbn)
        hi = bisect_left(self._active, lbn + sectors)
        return self._active[lo:hi]

    def limit_end(self, start: int, end: int, now: float) -> int:
        """Clip ``end`` so ``[start, end)`` contains no active bad sector.

        Models read-ahead stopping at the first unreadable sector: the
        drive cannot stream data it cannot read, so the cache never
        holds a sector that was already bad when it was (re)filled.
        """
        bad = self.first_bad(start, max(0, end - start), now)
        return end if bad is None else bad

    # -- remediation ------------------------------------------------------------
    def reallocate(self, lbn: int, now: float) -> bool:
        """Remap ``lbn`` to the spare pool; ``False`` when no spare is left.

        Reallocating a healthy sector is allowed (drives accept
        ``REASSIGN BLOCKS`` for any LBA) and consumes a spare.
        """
        if self.spares_used >= self.spare_sectors:
            self.log.record_reallocated(now, lbn, ok=False)
            return False
        self.spares_used += 1
        index = bisect_left(self._active, lbn)
        if index < len(self._active) and self._active[index] == lbn:
            del self._active[index]
        self._remapped[lbn] = now
        self.log.record_reallocated(now, lbn, ok=True)
        return True
