"""Reading and writing SNIA-style CSV block traces.

The SNIA IOTTA repository distributes block traces in several related
CSV dialects; the common core (also used by the MSR Cambridge traces)
is one request per line with a timestamp, an R/W flag, a byte offset
and a byte count.  This module reads that shape and a simpler
canonical dialect, so users with access to the real traces can feed
them to the rest of the library, and synthetic traces can round-trip
to disk.

Canonical dialect (written by :func:`write_csv_trace`)::

    # name: MSRsrc11-like
    # description: Source control
    # capacity_sectors: 585937500
    time,lbn,sectors,op
    0.000125,1048576,16,R

MSR Cambridge dialect (auto-detected: 7 columns, no header)::

    timestamp,hostname,disknum,type,offset_bytes,size_bytes,response_us

with ``timestamp`` in Windows 100 ns ticks.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.traces.record import Trace

#: Windows FILETIME ticks per second (MSR Cambridge timestamps).
_TICKS_PER_SECOND = 10_000_000
_SECTOR = 512


class TraceFormatError(ValueError):
    """A trace CSV the parser cannot accept, pinpointed to its line.

    Raised for malformed rows (wrong column count), non-numeric fields,
    negative offsets/sizes/timestamps and unknown operation codes; the
    message always names the file and 1-based line number so a bad row
    in a multi-GB trace can be found without bisecting the file.
    """

    def __init__(self, path, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _numeric_column(values, linenos, path, what: str, dtype) -> np.ndarray:
    """Batch-convert one column, blaming the exact line on failure."""
    try:
        return np.asarray(values, dtype=dtype)
    except (ValueError, OverflowError):
        caster = float if dtype is float else int
        for lineno, value in zip(linenos, values):
            try:
                caster(value)
            except (ValueError, OverflowError):
                raise TraceFormatError(
                    path, lineno, f"non-numeric {what}: {value!r}"
                ) from None
        raise  # every field converts alone; re-raise the batch failure


def _require_min(array, linenos, path, what: str, minimum: int) -> None:
    bad = np.flatnonzero(array < minimum)
    if bad.size:
        first = int(bad[0])
        kind = "negative" if minimum == 0 else "non-positive"
        raise TraceFormatError(
            path, int(linenos[first]), f"{kind} {what}: {array[first]}"
        )


def _require_ops(ops, prefixes, linenos, path) -> None:
    known = np.zeros(len(ops), dtype=bool)
    for prefix in prefixes:
        known |= np.char.startswith(ops, prefix)
    bad = np.flatnonzero(~known)
    if bad.size:
        first = int(bad[0])
        raise TraceFormatError(
            path, int(linenos[first]), f"unknown operation: {ops[first]!r}"
        )


#: Read-ahead for compressed traces.  ``gzip.open(path, "rt")`` decodes
#: through an unbuffered ``GzipFile``, so every line iteration pays a
#: small-read into the decompressor; a 1 MiB ``BufferedReader`` between
#: the two turns that into block-sized reads.
_GZIP_BUFFER = 1 << 20


def _open(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        if mode == "r":
            raw = gzip.open(path, "rb")
            return io.TextIOWrapper(
                io.BufferedReader(raw, _GZIP_BUFFER), encoding="utf-8"
            )
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_csv_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the canonical dialect (gzip if path ends .gz)."""
    with _open(path, "w") as fh:
        if trace.name:
            fh.write(f"# name: {trace.name}\n")
        if trace.description:
            fh.write(f"# description: {trace.description}\n")
        if trace.capacity_sectors is not None:
            fh.write(f"# capacity_sectors: {trace.capacity_sectors}\n")
        fh.write("time,lbn,sectors,op\n")
        if len(trace) == 0:
            return
        # Format column-at-once, then emit one string: orders of
        # magnitude fewer Python-level operations than a per-row loop.
        columns = (
            np.char.mod("%.6f", trace.times),
            np.char.mod("%d", trace.lbns),
            np.char.mod("%d", trace.sectors),
            np.where(trace.is_write, "W", "R"),
        )
        fh.write("\n".join(map(",".join, zip(*columns))))
        fh.write("\n")


def read_csv_trace(
    path: Union[str, Path], max_requests: Optional[int] = None
) -> Trace:
    """Read a canonical or MSR-dialect CSV trace (auto-detected).

    Parameters
    ----------
    max_requests:
        Stop parsing after this many data rows (first rows in file
        order).  An experiment with a fixed horizon rarely needs more
        than the trace's prefix, and for a multi-GB file stopping the
        *parse* early — not just the replay — is the difference between
        seconds and minutes.

    Raises
    ------
    TraceFormatError
        On any malformed row — wrong column count, non-numeric field,
        negative offset/size/timestamp, unknown operation — naming the
        offending line number.
    """
    if max_requests is not None and max_requests < 0:
        raise ValueError(f"max_requests must be non-negative: {max_requests}")
    meta = {"name": Path(path).stem, "description": "", "capacity_sectors": None}
    rows: List[List[str]] = []
    linenos: List[int] = []
    header: Optional[List[str]] = None
    header_line = 0
    with _open(path, "r") as fh:
        if max_requests != 0:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    _parse_meta(line, meta, path, lineno)
                    continue
                fields = line.split(",")
                if header is None and not rows and _looks_like_header(fields):
                    header = [f.strip().lower() for f in fields]
                    header_line = lineno
                    continue
                rows.append(fields)
                linenos.append(lineno)
                if max_requests is not None and len(rows) >= max_requests:
                    break
    if not rows:
        return Trace(
            np.zeros(0), np.zeros(0, int), np.ones(0, int), np.zeros(0, bool),
            **meta,
        )
    if header is not None:
        _check_widths(rows, linenos, len(header), path, "header")
        return _parse_canonical(rows, linenos, header, header_line, meta, path)
    if len(rows[0]) >= 6:
        _check_widths(rows, linenos, len(rows[0]), path, "first row")
        return _parse_msr(rows, linenos, meta, path)
    raise TraceFormatError(
        path, linenos[0],
        f"unrecognised trace dialect: {len(rows[0])} columns, no header",
    )


def _check_widths(rows, linenos, expected: int, path, against: str) -> None:
    for fields, lineno in zip(rows, linenos):
        if len(fields) != expected:
            raise TraceFormatError(
                path, lineno,
                f"malformed row: {len(fields)} columns where the "
                f"{against} has {expected}",
            )


def _parse_meta(line: str, meta: dict, path, lineno: int) -> None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return
    key, _, value = body.partition(":")
    key = key.strip()
    value = value.strip()
    if key == "name":
        meta["name"] = value
    elif key == "description":
        meta["description"] = value
    elif key == "capacity_sectors":
        try:
            meta["capacity_sectors"] = int(value)
        except ValueError:
            raise TraceFormatError(
                path, lineno, f"non-numeric capacity_sectors: {value!r}"
            ) from None


def _looks_like_header(fields: List[str]) -> bool:
    try:
        float(fields[0])
        return False
    except ValueError:
        return True


def _parse_canonical(rows, linenos, header, header_line, meta, path) -> Trace:
    index = {name: i for i, name in enumerate(header)}
    for required in ("time", "lbn", "sectors", "op"):
        if required not in index:
            raise TraceFormatError(
                path, header_line, f"canonical trace missing column {required!r}"
            )
    # One transpose, then NumPy converts each column in a single C pass.
    columns = list(zip(*rows))
    times = _numeric_column(columns[index["time"]], linenos, path, "time", float)
    lbns = _numeric_column(columns[index["lbn"]], linenos, path, "lbn", np.int64)
    sectors = _numeric_column(
        columns[index["sectors"]], linenos, path, "sectors", np.int64
    )
    _require_min(times, linenos, path, "time", 0)
    _require_min(lbns, linenos, path, "lbn", 0)
    _require_min(sectors, linenos, path, "sectors", 1)
    ops = np.char.upper(np.char.strip(np.asarray(columns[index["op"]])))
    _require_ops(ops, ("R", "W"), linenos, path)
    is_write = np.char.startswith(ops, "W")
    order = np.argsort(times, kind="stable")
    return Trace(
        times[order], lbns[order], sectors[order], is_write[order], **meta
    )


def _parse_msr(rows, linenos, meta, path, tick_base=None) -> Trace:
    # timestamp,hostname,disknum,type,offset,size[,response]
    columns = list(zip(*rows))
    ticks = _numeric_column(columns[0], linenos, path, "timestamp", np.int64)
    offsets = _numeric_column(
        columns[4], linenos, path, "offset_bytes", np.int64
    )
    sizes = _numeric_column(columns[5], linenos, path, "size_bytes", np.int64)
    _require_min(ticks, linenos, path, "timestamp", 0)
    _require_min(offsets, linenos, path, "offset_bytes", 0)
    _require_min(sizes, linenos, path, "size_bytes", 0)
    ops = np.char.lower(np.char.strip(np.asarray(columns[3])))
    _require_ops(ops, ("r", "w"), linenos, path)
    is_write = np.char.startswith(ops, "w")
    # tick_base pins the epoch when parsing chunk-wise (the streamed
    # reader passes the first chunk's minimum so every chunk shares it).
    base = ticks.min() if tick_base is None else tick_base
    times = (ticks - base) / _TICKS_PER_SECOND
    lbns = offsets // _SECTOR
    sectors = np.maximum(1, sizes // _SECTOR)
    order = np.argsort(times, kind="stable")
    return Trace(
        times[order], lbns[order], sectors[order], is_write[order], **meta
    )


def iter_trace_chunks(
    path: Union[str, Path], chunk_requests: int = 65536
) -> Iterator[Trace]:
    """Stream a CSV trace as :class:`Trace` chunks in bounded memory.

    Yields traces of at most ``chunk_requests`` requests each, parsed
    incrementally, so a multi-GB SNIA trace feeds
    :class:`~repro.workloads.TraceReplayer` (which accepts a chunk
    iterable directly) without ever materialising the whole file.
    The file must be time-sorted — rows are only sorted *within* a
    chunk, and the replayer rejects chunk streams that go backwards in
    time.  For MSR-dialect traces, all chunks share the first chunk's
    minimum timestamp as the epoch, so a chunked parse of a sorted file
    equals :func:`read_csv_trace` column-for-column.
    """
    if chunk_requests <= 0:
        raise ValueError(f"chunk_requests must be positive: {chunk_requests}")
    meta = {"name": Path(path).stem, "description": "", "capacity_sectors": None}
    rows: List[List[str]] = []
    linenos: List[int] = []
    header: Optional[List[str]] = None
    header_line = 0
    dialect: Optional[str] = None
    tick_base: Optional[int] = None

    def flush() -> Trace:
        nonlocal tick_base
        if dialect == "canonical":
            _check_widths(rows, linenos, len(header), path, "header")
            return _parse_canonical(rows, linenos, header, header_line, meta, path)
        _check_widths(rows, linenos, len(rows[0]), path, "first row")
        if tick_base is None:
            ticks = _numeric_column(
                [fields[0] for fields in rows], linenos, path,
                "timestamp", np.int64,
            )
            tick_base = int(ticks.min())
        return _parse_msr(rows, linenos, meta, path, tick_base=tick_base)

    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _parse_meta(line, meta, path, lineno)
                continue
            fields = line.split(",")
            if dialect is None:
                if header is None and _looks_like_header(fields):
                    header = [f.strip().lower() for f in fields]
                    header_line = lineno
                    dialect = "canonical"
                    continue
                if header is None:
                    if len(fields) < 6:
                        raise TraceFormatError(
                            path, lineno,
                            f"unrecognised trace dialect: {len(fields)} "
                            "columns, no header",
                        )
                    dialect = "msr"
            rows.append(fields)
            linenos.append(lineno)
            if len(rows) >= chunk_requests:
                yield flush()
                rows = []
                linenos = []
    if rows:
        yield flush()
