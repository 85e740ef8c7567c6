"""C-LOOK elevator ordering for a single request queue.

The classic elevator: serve requests in ascending LBN order starting
from the current head position; when the highest-LBN pending request
has been passed, sweep back to the lowest.  This is the sort order CFQ
applies within a queue; the paper's kernel scrubber disguises VERIFY
requests as reads precisely so they can participate in it.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.sched.request import IORequest


class ElevatorQueue:
    """Requests kept sorted by LBN, served C-LOOK style."""

    def __init__(self) -> None:
        self._lbns: List[int] = []
        self._requests: List[IORequest] = []

    def __len__(self) -> int:
        return len(self._requests)

    def add(self, request: IORequest) -> None:
        """Insert ``request`` in LBN order (stable for equal LBNs)."""
        index = bisect.bisect_right(self._lbns, request.command.lbn)
        self._lbns.insert(index, request.command.lbn)
        self._requests.insert(index, request)

    def pop(self, position: int) -> Optional[IORequest]:
        """Remove and return the next request in C-LOOK order."""
        if not self._requests:
            return None
        index = bisect.bisect_left(self._lbns, position)
        if index == len(self._requests):
            index = 0  # C-LOOK wrap to the lowest LBN
        self._lbns.pop(index)
        return self._requests.pop(index)

    def remove(self, request: IORequest) -> None:
        """Remove a specific queued request."""
        for index, queued in enumerate(self._requests):
            if queued is request:
                self._lbns.pop(index)
                self._requests.pop(index)
                return
        raise ValueError(f"{request!r} is not queued")

    def oldest(self) -> Optional[IORequest]:
        """The queued request with the smallest submission sequence."""
        if not self._requests:
            return None
        return min(self._requests, key=lambda r: r.seq)

    def requests(self) -> List[IORequest]:
        """Snapshot in LBN order."""
        return list(self._requests)
