"""Columnar on-disk trace store with memory-mapped zero-copy reads.

A multi-GB trace cannot live in RAM per process, and handing an
in-memory :class:`Trace` to forked workers still requires *somebody* to
materialise the whole thing once.  This module puts the columns on disk
instead, packed back to back (:data:`_COLUMNS`) and split into
fixed-size chunk files:

    store-dir/
        header.json          versioned metadata, written last
        chunk-000000.bin     times | lbns | sectors | is_write, packed
        chunk-000001.bin     ...

Readers ``mmap`` a chunk and view the four columns straight out of the
page cache — no copies, no parse — so opening a corpus is O(header) and
replaying it is O(one chunk) resident: the kernel reclaims pages of
chunks the replay cursor has moved past.

Integrity is two-layered.  Each chunk file carries its own sha256 in
the header; a truncated file is refused at :meth:`StoredTrace.open`
(size check) and a corrupted one at first read (digest check).  The
header also records the whole-trace content digest — byte-identical to
what :meth:`~repro.traces.record.Trace.digest` would return for the
materialised trace — so cache keys for a stored trace come straight
from the header instead of re-hashing gigabytes.

:class:`TraceCorpus` is the catalog layer: a directory of stores plus
an index (``catalog.json``) mapping workload names to entries, built
by :func:`repro.traces.catalog.generate_corpus` or incrementally via
:meth:`TraceCorpus.add`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs.export import atomic_write
from repro.traces.record import Trace, update_digest_bytes

#: On-disk format tag / version for a single stored trace.
STORE_FORMAT = "repro-trace-store"
STORE_VERSION = 1

#: Format tag / version for a corpus catalog directory.
CORPUS_FORMAT = "repro-trace-corpus"
CORPUS_VERSION = 1

#: Requests per chunk file: 1 Mi requests = 25 MiB packed.  Large
#: enough that per-chunk overheads vanish, small enough that "resident
#: memory bounded by chunk size" is a real bound.
DEFAULT_CHUNK_REQUESTS = 1 << 20

#: Bytes hashed per update while verifying a chunk file.
_HASH_BLOCK = 1 << 22

#: Column layout: (attribute, dtype); a chunk file is these four arrays
#: back to back, each ``itemsize * requests`` bytes.
_COLUMNS = (
    ("times", np.dtype(np.float64)),
    ("lbns", np.dtype(np.int64)),
    ("sectors", np.dtype(np.int64)),
    ("is_write", np.dtype(np.bool_)),
)


def packed_nbytes(n: int) -> int:
    """Size in bytes of ``n`` requests in the packed column layout."""
    return sum(dtype.itemsize for _, dtype in _COLUMNS) * n


def column_views(buf, n: int) -> dict:
    """The four packed column arrays as zero-copy views into ``buf``.

    ``buf`` is any buffer-protocol object (the mmap of a chunk file, a
    ``bytearray`` being filled) holding the :data:`_COLUMNS` layout for
    ``n`` requests.  Returns ``{attr: ndarray}`` views — no copies,
    which is what keeps a corpus chunk open O(1) in trace size.
    """
    columns = {}
    offset = 0
    for attr, dtype in _COLUMNS:
        columns[attr] = np.ndarray(n, dtype=dtype, buffer=buf, offset=offset)
        offset += dtype.itemsize * n
    return columns


class TraceStoreError(Exception):
    """Malformed store layout or invalid write input."""


class StoreIntegrityError(TraceStoreError):
    """A chunk file is truncated or its bytes do not match its digest."""


def _sha256_of(view: memoryview) -> str:
    h = hashlib.sha256()
    for start in range(0, len(view), _HASH_BLOCK):
        h.update(view[start:start + _HASH_BLOCK])
    return h.hexdigest()


class _ChunkMapping:
    """A read-only mmap of one chunk file, pinned to its trace views.

    The chunk :class:`Trace` holds a reference to this mapping so the
    buffer cannot vanish under its arrays; ``close`` tolerates live
    exports and simply leaves the mapping to the garbage collector.
    """

    def __init__(self, path: Path) -> None:
        with open(path, "rb") as f:
            self._mmap = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        buf, self.buf = self.buf, None
        if buf is not None:
            buf.release()
        try:
            self._mmap.close()
        except BufferError:
            pass


def _chunk_filename(index: int) -> str:
    return f"chunk-{index:06d}.bin"


def _as_chunks(source) -> Iterator[Trace]:
    """Normalise a write source (Trace or iterable of Traces) to chunks."""
    if isinstance(source, Trace):
        yield source
        return
    for chunk in source:
        if not isinstance(chunk, Trace):
            raise TraceStoreError(
                f"chunk source must yield Trace objects, got {type(chunk).__name__}"
            )
        yield chunk


def write_trace(
    source,
    directory: Union[str, Path],
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    name: Optional[str] = None,
) -> "StoredTrace":
    """Write a trace (or stream of trace chunks) as an on-disk store.

    ``source`` is either a :class:`Trace` or an iterable of time-ordered
    :class:`Trace` chunks (e.g. :func:`repro.traces.io.iter_trace_chunks`
    output); chunks are re-packed to uniform ``chunk_requests``
    boundaries so the layout — and therefore every per-chunk digest —
    depends only on the trace content, not on how the writer chunked it.
    Metadata comes from the first chunk (``name`` overrides its name).
    The header is written *last*: a crashed write leaves chunk files but
    no header, and :meth:`StoredTrace.open` refuses the directory
    outright.

    Peak memory is O(``chunk_requests``): chunks stream through a
    bounded re-pack buffer, and the whole-trace digest is computed
    afterwards column-major over the memory-mapped chunk files.
    """
    if chunk_requests <= 0:
        raise ValueError(f"chunk_requests must be positive: {chunk_requests}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / "header.json").exists():
        raise TraceStoreError(f"store already exists: {directory}")

    pending: List[Trace] = []
    buffered = 0
    chunk_infos: List[dict] = []
    meta: Dict[str, object] = {}
    total = 0
    t_first: Optional[float] = None
    t_last: Optional[float] = None

    def flush(count: int) -> None:
        """Write the first ``count`` buffered requests as one chunk file."""
        nonlocal pending, buffered, total, t_first, t_last
        buf = bytearray(packed_nbytes(count))
        views = column_views(buf, count)
        offset = 0
        kept: List[Trace] = []
        for part in pending:
            take = min(count - offset, len(part))
            if take:
                for attr in views:
                    views[attr][offset:offset + take] = getattr(part, attr)[:take]
                offset += take
            if take < len(part):
                kept.append(
                    Trace(
                        part.times[take:], part.lbns[take:],
                        part.sectors[take:], part.is_write[take:],
                        validate=False,
                    )
                )
        pending = kept
        buffered -= count
        times = views["times"]
        if t_last is not None and times[0] < t_last:
            raise TraceStoreError(
                "chunk source is not globally time-sorted: "
                f"{times[0]!r} < {t_last!r} at request {total}"
            )
        if t_first is None:
            t_first = float(times[0])
        t_last = float(times[-1])
        path = directory / _chunk_filename(len(chunk_infos))
        with open(path, "wb") as f:
            f.write(buf)
        chunk_infos.append(
            {
                "file": path.name,
                "requests": count,
                "sha256": _sha256_of(memoryview(buf)),
            }
        )
        total += count

    for chunk in _as_chunks(source):
        if not meta:
            meta = {
                "name": chunk.name if name is None else name,
                "description": chunk.description,
                "capacity_sectors": chunk.capacity_sectors,
            }
        if len(chunk) == 0:
            continue
        if len(chunk.times) > 1 and np.any(np.diff(chunk.times) < 0):
            raise TraceStoreError("chunk times must be non-decreasing")
        pending.append(chunk)
        buffered += len(chunk)
        while buffered >= chunk_requests:
            flush(chunk_requests)
    if buffered:
        flush(buffered)
    if not meta:
        meta = {"name": name or "", "description": "", "capacity_sectors": None}

    # Whole-trace content digest, column-major across chunk files —
    # byte-for-byte the sequence Trace.digest() hashes, so the stored
    # value is interchangeable with an in-memory digest as a cache key.
    h = hashlib.sha256()
    for attr, dtype in _COLUMNS:
        h.update(str(dtype).encode())
        for info in chunk_infos:
            mapping = _ChunkMapping(directory / info["file"])
            try:
                column = column_views(mapping.buf, info["requests"])[attr]
                update_digest_bytes(h, column)
            finally:
                mapping.close()
    h.update(repr(meta["capacity_sectors"]).encode())

    header = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "name": meta["name"],
        "description": meta["description"],
        "capacity_sectors": meta["capacity_sectors"],
        "requests": total,
        "time_range": None if t_first is None else [t_first, t_last],
        "digest": h.hexdigest(),
        "chunk_requests": chunk_requests,
        "dtypes": {attr: str(dtype) for attr, dtype in _COLUMNS},
        "chunks": chunk_infos,
    }
    with atomic_write(directory / "header.json") as f:
        json.dump(header, f, indent=1, sort_keys=True)
    return StoredTrace.open(directory)


class StoredTrace:
    """A trace read zero-copy from an on-disk store directory.

    Duck-types the :class:`Trace` surface the replay and analysis
    layers consume — ``digest()``, ``duration``, ``len()``, iteration
    as time-ordered :class:`Trace` chunks (which
    :class:`~repro.workloads.replay.TraceReplayer` replays) — while
    never holding more than one chunk's pages resident.
    """

    def __init__(self, directory: Path, header: dict) -> None:
        self._dir = directory
        self._header = header
        self._chunks = header["chunks"]
        self._verified = [False] * len(self._chunks)
        self.name = header["name"]
        self.description = header["description"]
        self.capacity_sectors = header["capacity_sectors"]

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "StoredTrace":
        """Open a store, validating the header and every chunk's size.

        O(chunks) stat calls, zero data reads: truncation is caught
        here (a chunk file smaller than its request count implies),
        corruption on first access to the affected chunk.
        """
        directory = Path(directory)
        header_path = directory / "header.json"
        try:
            with open(header_path) as f:
                header = json.load(f)
        except FileNotFoundError:
            raise TraceStoreError(f"not a trace store (no header): {directory}")
        except json.JSONDecodeError as exc:
            raise TraceStoreError(f"corrupt store header {header_path}: {exc}")
        if header.get("format") != STORE_FORMAT:
            raise TraceStoreError(
                f"{header_path}: format {header.get('format')!r}, "
                f"expected {STORE_FORMAT!r}"
            )
        if header.get("version") != STORE_VERSION:
            raise TraceStoreError(
                f"{header_path}: store version {header.get('version')!r} "
                f"not supported (reader speaks {STORE_VERSION})"
            )
        expected_dtypes = {attr: str(dtype) for attr, dtype in _COLUMNS}
        if header.get("dtypes") != expected_dtypes:
            raise TraceStoreError(
                f"{header_path}: column dtypes {header.get('dtypes')} do not "
                f"match this build's layout {expected_dtypes}"
            )
        total = 0
        for info in header["chunks"]:
            path = directory / info["file"]
            try:
                size = os.path.getsize(path)
            except OSError:
                raise StoreIntegrityError(f"missing chunk file: {path}")
            want = packed_nbytes(info["requests"])
            if size != want:
                raise StoreIntegrityError(
                    f"chunk {path.name} is {size} bytes, "
                    f"expected {want} for {info['requests']} requests"
                )
            total += info["requests"]
        if total != header["requests"]:
            raise StoreIntegrityError(
                f"{header_path}: chunks sum to {total} requests, "
                f"header says {header['requests']}"
            )
        return cls(directory, header)

    @property
    def path(self) -> Path:
        return self._dir

    def __len__(self) -> int:
        return self._header["requests"]

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def digest(self) -> str:
        """The stored content digest (no data is read or hashed)."""
        return self._header["digest"]

    @property
    def duration(self) -> float:
        """Span from first to last arrival, straight from the header."""
        time_range = self._header["time_range"]
        if time_range is None:
            return 0.0
        return float(time_range[1]) - float(time_range[0])

    @property
    def time_range(self) -> Optional[Tuple[float, float]]:
        time_range = self._header["time_range"]
        if time_range is None:
            return None
        return (float(time_range[0]), float(time_range[1]))

    def chunk(self, index: int) -> Trace:
        """Chunk ``index`` as a zero-copy mmap-backed :class:`Trace`.

        The first read of each chunk verifies its sha256 against the
        header and refuses a mismatch; the returned trace pins its
        mapping, so its pages stay valid exactly as long as the trace
        object lives and become reclaimable the moment it is dropped.
        """
        info = self._chunks[index]
        mapping = _ChunkMapping(self._dir / info["file"])
        try:
            if not self._verified[index]:
                found = _sha256_of(mapping.buf)
                if found != info["sha256"]:
                    raise StoreIntegrityError(
                        f"chunk {info['file']} content digest mismatch: "
                        f"stored {info['sha256'][:12]}..., found {found[:12]}... "
                        "(refusing corrupt data)"
                    )
                self._verified[index] = True
            columns = column_views(mapping.buf, info["requests"])
        except BaseException:
            mapping.close()
            raise
        trace = Trace(
            columns["times"],
            columns["lbns"],
            columns["sectors"],
            columns["is_write"],
            name=self.name,
            description=self.description,
            capacity_sectors=self.capacity_sectors,
            validate=False,
        )
        trace._trace_arrays = mapping  # pin mapping to the views' lifetime
        return trace

    def iter_chunks(self) -> Iterator[Trace]:
        """Yield chunks in time order, one mapping live at a time."""
        for index in range(len(self._chunks)):
            yield self.chunk(index)

    def __iter__(self) -> Iterator[Trace]:
        # Iterating a StoredTrace yields Trace chunks — the exact shape
        # TraceReplayer's chunk-iterable input path consumes, so
        # ``TraceReplayer(stored_trace)`` streams from disk natively.
        return self.iter_chunks()

    def verify(self) -> None:
        """Full audit: every chunk digest plus the whole-trace digest.

        Reads all data (O(chunk) resident) and raises
        :class:`StoreIntegrityError` on the first mismatch.
        """
        h = hashlib.sha256()
        for attr, dtype in _COLUMNS:
            h.update(str(dtype).encode())
            for index, info in enumerate(self._chunks):
                mapping = _ChunkMapping(self._dir / info["file"])
                try:
                    if not self._verified[index]:
                        found = _sha256_of(mapping.buf)
                        if found != info["sha256"]:
                            raise StoreIntegrityError(
                                f"chunk {info['file']} content digest mismatch"
                            )
                        self._verified[index] = True
                    column = column_views(mapping.buf, info["requests"])[attr]
                    update_digest_bytes(h, column)
                finally:
                    mapping.close()
        h.update(repr(self.capacity_sectors).encode())
        if h.hexdigest() != self.digest():
            raise StoreIntegrityError(
                f"store {self._dir}: trace digest mismatch "
                f"(header {self.digest()[:12]}..., data {h.hexdigest()[:12]}...)"
            )

    def __repr__(self) -> str:
        return (
            f"<StoredTrace {self.name!r} at {self._dir}: {len(self)} requests, "
            f"{len(self._chunks)} chunks>"
        )


class TraceCorpus:
    """A directory of trace stores indexed by workload name.

    Layout::

        corpus-dir/
            catalog.json        {name: {dir, digest, requests, ...}}
            MSRusr2/            one store per entry
                header.json
                chunk-000000.bin
            ...

    ``catalog.json`` is rewritten atomically on every :meth:`add`, so a
    crashed build leaves a corpus that simply lacks the interrupted
    entry.  Opening an entry costs its store's header read only.
    """

    CATALOG_NAME = "catalog.json"

    def __init__(self, root: Path, index: dict) -> None:
        self._root = root
        self._index = index

    @classmethod
    def create(cls, root: Union[str, Path]) -> "TraceCorpus":
        """Initialise an empty corpus (directory may exist, index not)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / cls.CATALOG_NAME).exists():
            raise TraceStoreError(f"corpus already exists: {root}")
        corpus = cls(
            root,
            {"format": CORPUS_FORMAT, "version": CORPUS_VERSION, "entries": {}},
        )
        corpus._write_index()
        return corpus

    @classmethod
    def open(cls, root: Union[str, Path]) -> "TraceCorpus":
        root = Path(root)
        path = root / cls.CATALOG_NAME
        try:
            with open(path) as f:
                index = json.load(f)
        except FileNotFoundError:
            raise TraceStoreError(f"not a trace corpus (no catalog): {root}")
        except json.JSONDecodeError as exc:
            raise TraceStoreError(f"corrupt corpus catalog {path}: {exc}")
        if index.get("format") != CORPUS_FORMAT:
            raise TraceStoreError(
                f"{path}: format {index.get('format')!r}, "
                f"expected {CORPUS_FORMAT!r}"
            )
        if index.get("version") != CORPUS_VERSION:
            raise TraceStoreError(
                f"{path}: corpus version {index.get('version')!r} not "
                f"supported (reader speaks {CORPUS_VERSION})"
            )
        return cls(root, index)

    def _write_index(self) -> None:
        with atomic_write(self._root / self.CATALOG_NAME) as f:
            json.dump(self._index, f, indent=1, sort_keys=True)

    @property
    def root(self) -> Path:
        return self._root

    def names(self) -> List[str]:
        return sorted(self._index["entries"])

    def __len__(self) -> int:
        return len(self._index["entries"])

    def __contains__(self, name: str) -> bool:
        return name in self._index["entries"]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def describe(self, name: str) -> dict:
        """The catalog row for ``name`` (metadata only, no store open)."""
        if name not in self._index["entries"]:
            raise KeyError(
                f"unknown corpus entry {name!r}; available: {self.names()}"
            )
        return dict(self._index["entries"][name])

    def entry(self, name: str) -> StoredTrace:
        """Open the store for ``name``; :class:`KeyError` if unknown."""
        row = self.describe(name)
        return StoredTrace.open(self._root / row["dir"])

    def add(
        self,
        name: str,
        source,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
        extra: Optional[dict] = None,
    ) -> StoredTrace:
        """Write ``source`` as the store for ``name`` and index it.

        ``extra`` (e.g. the generating seed/duration) is recorded in
        the catalog row verbatim.  Re-adding an existing name is
        refused — a corpus entry is content-addressed by its digest and
        silently replacing one would invalidate downstream cache keys'
        meaning.
        """
        if name in self._index["entries"]:
            raise TraceStoreError(f"corpus entry already exists: {name!r}")
        if not name or "/" in name or name.startswith("."):
            raise TraceStoreError(f"invalid corpus entry name: {name!r}")
        stored = write_trace(
            source,
            self._root / name,
            chunk_requests=chunk_requests,
            name=name,
        )
        row = {
            "dir": name,
            "digest": stored.digest(),
            "requests": len(stored),
            "duration": stored.duration,
            "chunks": stored.chunk_count,
        }
        if extra:
            row.update(extra)
        self._index["entries"][name] = row
        self._write_index()
        return stored
