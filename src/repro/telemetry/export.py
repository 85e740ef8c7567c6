"""Offline export: request and error logs as JSON Lines.

One JSON object per line, so detection runs can be post-processed with
standard streaming tools (``jq``, pandas ``read_json(lines=True)``,
``grep``) without loading a whole run into memory.  The shared writer
:func:`write_jsonl` takes any iterable of dicts; the two adapters below
flatten the simulator's in-memory logs:

* :func:`request_log_records` — one record per completed I/O in a
  :class:`~repro.sched.device.RequestLog`, with blktrace-style
  queue/dispatch/complete timestamps and the drive's service breakdown;
* :func:`error_log_records` — one record per
  :class:`~repro.faults.log.ErrorRecord` lifecycle step.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Dict, Iterable, Iterator, Union

__all__ = [
    "atomic_write",
    "error_log_records",
    "request_log_records",
    "write_jsonl",
]


@contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Open a text file that replaces ``path`` only if the block completes.

    The handle is a temp file in ``path``'s directory (so the rename
    never crosses a filesystem) whose name does not end in ``path``'s
    suffix (so a directory scraper — the Prometheus textfile collector
    — never picks it up).  A clean exit renames it over ``path``; an
    exception unlinks it and propagates; a SIGKILL leaves the previous
    file, or no file, never a torn one.  The one writer behind every
    operator-facing observability file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_jsonl(
    destination: Union[str, IO[str]], records: Iterable[Dict]
) -> int:
    """Write ``records`` one-JSON-object-per-line; returns the count.

    Keys are written in insertion order (the adapters emit a stable
    order), so identical runs produce byte-identical files.

    Path destinations are crash-safe (:func:`atomic_write`) and synced
    to disk before the rename; file objects are streamed straight
    through.
    """
    if hasattr(destination, "write"):
        return _write_lines(destination, records)
    with atomic_write(destination) as handle:
        count = _write_lines(handle, records)
        handle.flush()
        os.fsync(handle.fileno())
    return count


def _write_lines(handle: IO[str], records: Iterable[Dict]) -> int:
    count = 0
    for record in records:
        handle.write(json.dumps(record) + "\n")
        count += 1
    return count


def request_log_records(log) -> Iterator[Dict]:
    """Flatten a :class:`~repro.sched.device.RequestLog` to dicts."""
    for request in log.requests():
        breakdown = request.breakdown
        record: Dict = {
            "submit": request.submit_time,
            "dispatch": request.dispatch_time,
            "complete": request.complete_time,
            "opcode": request.command.opcode.value,
            "lbn": request.command.lbn,
            "sectors": request.command.sectors,
            "bytes": request.bytes,
            "priority": request.priority.name,
            "source": request.source,
        }
        if breakdown is not None:
            record.update(
                status=breakdown.status.name,
                cache_hit=breakdown.cache_hit,
                seek_s=breakdown.seek,
                rotation_s=breakdown.rotation,
                transfer_s=breakdown.transfer,
            )
            if breakdown.error_lbn is not None:
                record["error_lbn"] = breakdown.error_lbn
        yield record


def error_log_records(log) -> Iterator[Dict]:
    """Flatten a :class:`~repro.faults.log.ErrorLog` to dicts."""
    for record in log.records:
        row: Dict = {
            "time": record.time,
            "kind": record.kind.value,
            "lbn": record.lbn,
        }
        if record.source:
            row["source"] = record.source
        if record.opcode:
            row["opcode"] = record.opcode
        row["ok"] = record.ok
        yield row
