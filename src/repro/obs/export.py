"""Whole-file writes, and request and error logs as JSON Lines.

:func:`atomic_write` is how every whole file of durable state and every
operator-facing output lands on disk, its policy stated per call.

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
from contextlib import contextmanager
from typing import IO, Dict, Iterable, Iterator, Union

__all__ = [
    "atomic_write",
    "error_log_records",
    "request_log_records",
    "write_jsonl",
]


@contextmanager
def atomic_write(
    path: Union[str, "os.PathLike[str]"],
    *,
    binary: bool = False,
    fsync: bool = False,
    exclusive: bool = False,
) -> Iterator[IO]:
    """Open a file that lands at ``path`` whole, only if the block completes.

    The handle is a temp file in ``path``'s directory, named with a
    leading dot and not ``path``'s suffix (so a directory scraper -- the
    Prometheus textfile collector -- never picks it up) and created
    ``0o666`` less the umask, as ``open(path, "w")`` would.  A clean exit
    publishes it; an exception in the block or the publish unlinks it
    and propagates; a SIGKILL leaves the previous file, or none, never a
    torn one.  Each caller states its policy (DESIGN §9 has the table):

    * ``binary`` -- a bytes handle instead of UTF-8 text;
    * ``fsync`` -- ``os.fsync`` the file before publishing it (never the
      directory);
    * ``exclusive`` -- publish with ``os.link``, which raises
      :class:`FileExistsError` when ``path`` exists, not ``os.replace``.
    """
    directory, name = os.path.split(os.path.abspath(path))
    # 64 random bits; O_EXCL turns a collision into an error, never a clobber.
    tmp = os.path.join(directory, f".{name}-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if exclusive:
        os.unlink(tmp)


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
    with atomic_write(destination, fsync=True) as handle:
        return _write_lines(handle, records)


def _write_lines(handle: IO[str], records: Iterable[Dict]) -> int:
    count = 0
    for record in records:
        handle.write(json.dumps(record) + "\n")
        count += 1
    return count


def request_log_records(log) -> Iterator[Dict]:
    """Flatten a :class:`~repro.sched.device.RequestLog` to dicts (every
    logged request carries its drive breakdown)."""
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
            "status": breakdown.status.name,
            "cache_hit": breakdown.cache_hit,
            "seek_s": breakdown.seek,
            "rotation_s": breakdown.rotation,
            "transfer_s": breakdown.transfer,
        }
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
