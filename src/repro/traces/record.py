"""Array-backed trace container.

A :class:`Trace` stores a block I/O trace as parallel numpy arrays —
the only representation that stays workable at the paper's scale
(tens of millions of requests per disk-week).  Individual records are
materialised lazily as :class:`TraceRecord` objects for consumers that
want them (e.g. the replayer).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

#: Bytes hashed per ``update`` while streaming a column into a digest.
#: Bounds the transient copy made for non-contiguous columns; contiguous
#: columns are hashed through zero-copy memoryview slices.
_DIGEST_BLOCK = 1 << 22


def update_digest(h, column: np.ndarray) -> None:
    """Feed one column into hash ``h`` exactly as :meth:`Trace.digest`.

    Streams the column in :data:`_DIGEST_BLOCK`-byte slices instead of
    one ``tobytes()`` call, so hashing a multi-GB memory-mapped column
    never materialises a full copy — the digest value is identical
    either way (same dtype tag, same bytes, same order).  Shared by
    :meth:`Trace.digest` and the on-disk store
    (:mod:`repro.traces.store`), which computes the same content digest
    chunk-wise at write time so readers never re-hash.
    """
    h.update(str(column.dtype).encode())
    update_digest_bytes(h, column)


def update_digest_bytes(h, column: np.ndarray) -> None:
    """Feed only the raw bytes of ``column`` into ``h`` (no dtype tag).

    The store hashes one logical column that spans many chunk files:
    the dtype tag goes in once, then each chunk's bytes stream through
    here in file order — reproducing :func:`update_digest`'s byte
    sequence for the concatenated column.
    """
    if not column.flags.c_contiguous:
        column = np.ascontiguousarray(column)
    view = memoryview(column).cast("B")
    for start in range(0, len(view), _DIGEST_BLOCK):
        h.update(view[start:start + _DIGEST_BLOCK])


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry (times in seconds from trace start)."""

    time: float
    lbn: int
    sectors: int
    is_write: bool


class Trace:
    """A block I/O trace.

    Parameters
    ----------
    times:
        Arrival times in seconds, non-decreasing.
    lbns, sectors:
        Request start addresses and lengths (512-byte sectors).
    is_write:
        Boolean array; ``False`` = read.
    name, description:
        Identification metadata (mirrors the paper's Table I columns).
    capacity_sectors:
        Size of the traced disk, if known.
    validate:
        Skip the column sanity checks when ``False``.  Only for
        internal fast paths that rebuild a trace from columns already
        validated once (e.g. store chunk views, streamed chunks); the
        checks are O(n) and mapping a multi-million request chunk
        should not re-pay them.
    """

    def __init__(
        self,
        times: np.ndarray,
        lbns: np.ndarray,
        sectors: np.ndarray,
        is_write: np.ndarray,
        name: str = "",
        description: str = "",
        capacity_sectors: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        times = np.asarray(times, dtype=float)
        lbns = np.asarray(lbns, dtype=np.int64)
        sectors = np.asarray(sectors, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if validate:
            lengths = {len(times), len(lbns), len(sectors), len(is_write)}
            if len(lengths) != 1:
                raise ValueError(f"mismatched column lengths: {sorted(lengths)}")
            if len(times) and np.any(np.diff(times) < 0):
                raise ValueError("times must be non-decreasing")
            if np.any(sectors <= 0):
                raise ValueError("sector counts must be positive")
            if np.any(lbns < 0):
                raise ValueError("LBNs must be non-negative")
        self.times = times
        self.lbns = lbns
        self.sectors = sectors
        self.is_write = is_write
        self.name = name
        self.description = description
        self.capacity_sectors = capacity_sectors
        #: Content digest memo (see :meth:`digest`).
        self._digest: Optional[str] = None

    def __len__(self) -> int:
        return len(self.times)

    def digest(self) -> str:
        """Content digest of the trace (SHA-256 over the four columns).

        Two traces with identical requests share a digest regardless of
        how they were built (parsed, generated, mapped from a store),
        while regenerated synthetic traces that merely share a *name*
        do not — which is what makes the digest safe as a cache-key
        component for trace-driven experiments.  ``capacity_sectors``
        participates; the free-text ``name``/``description`` metadata
        does not.  The digest is computed once and memoised, so it must
        not be relied upon after mutating the column arrays in place.

        Hashing streams each column in bounded blocks
        (:func:`update_digest`), so digesting a memory-mapped multi-GB
        trace stays O(block) resident instead of copying every column
        through ``tobytes()``; the digest value is unchanged.
        """
        if self._digest is None:
            h = hashlib.sha256()
            for column in (self.times, self.lbns, self.sectors, self.is_write):
                update_digest(h, column)
            h.update(repr(self.capacity_sectors).encode())
            self._digest = h.hexdigest()
        return self._digest

    @property
    def duration(self) -> float:
        """Span from first to last arrival (0 for empty traces)."""
        if len(self.times) == 0:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def records(self) -> Iterator[TraceRecord]:
        """Iterate records (lazy; suitable for the replayer)."""
        for i in range(len(self.times)):
            yield TraceRecord(
                time=float(self.times[i]),
                lbn=int(self.lbns[i]),
                sectors=int(self.sectors[i]),
                is_write=bool(self.is_write[i]),
            )

    def window(self, start: float, end: float) -> "Trace":
        """Sub-trace with arrivals in ``[start, end)`` (times re-based)."""
        if end < start:
            raise ValueError(f"empty window: [{start}, {end})")
        # Times are sorted, so [start, end) is one slice: two binary
        # searches, not two passes over the column (or a mapped store).
        # Copied, as a mask would: the window does not pin its parent.
        lo, hi = np.searchsorted(self.times, (start, end), side="left")
        return Trace(
            self.times[lo:hi] - start,
            self.lbns[lo:hi].copy(),
            self.sectors[lo:hi].copy(),
            self.is_write[lo:hi].copy(),
            name=self.name,
            description=self.description,
            capacity_sectors=self.capacity_sectors,
        )

    def requests_per_bin(self, bin_seconds: float = 3600.0) -> np.ndarray:
        """Arrival counts per time bin (Fig. 8's requests-per-hour)."""
        if bin_seconds <= 0:
            raise ValueError(f"bin_seconds must be positive: {bin_seconds}")
        if len(self.times) == 0:
            return np.zeros(0, dtype=int)
        span = self.times[-1] - self.times[0]
        nbins = max(1, int(np.ceil(span / bin_seconds)) or 1)
        edges = self.times[0] + np.arange(nbins + 1) * bin_seconds
        counts, _ = np.histogram(self.times, bins=edges)
        return counts

    def __repr__(self) -> str:
        return (
            f"<Trace {self.name!r}: {len(self)} requests over "
            f"{self.duration / 3600:.1f} h>"
        )
