"""Chrome trace-event JSON: the one encoder and the one writer.

Both recorders of :mod:`repro.obs` export through
:func:`encode_events` into the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer: a
``{"traceEvents": [...]}`` object whose entries use microsecond
timestamps, all on process id 0 (:func:`with_pid` re-homes them).

* :meth:`~repro.obs.sink.Recorder.chrome_events` maps the simulator's
  blktrace-style lifecycle: each completed request becomes two
  complete ("X") spans on its source's thread (``wait <opcode>`` from
  queued to dispatched, ``<opcode>`` from dispatched to completed, with
  the drive's seek/rotation/transfer breakdown in ``args``), scrub pass
  boundaries and fault steps become process-scoped instant ("i")
  events, and scrub progress becomes a counter ("C") track.
* :meth:`~repro.obs.spans.SpanRecorder.chrome_events` maps the
  campaign → shard → attempt → phase tree: closed and still-open spans
  become "X" events, markers become thread-scoped "i" events.

Named processes and threads are metadata ("M") events.  Seconds map to
trace microseconds 1:1 in value (``ts = seconds * 1e6``), so one viewer
microsecond is one simulated (or, for spans, wall-clock) microsecond.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Tuple, Union

from repro.obs.export import atomic_write

__all__ = [
    "encode_events",
    "with_pid",
    "write_chrome_trace",
]

_US = 1e6  # seconds -> trace microseconds


def _metadata(name: str, tid: int, value: str) -> dict:
    return {"name": name, "ph": "M", "pid": 0, "tid": tid, "args": {"name": value}}


def encode_events(
    process_name: str,
    threads: Iterable[Tuple[int, str]],
    spans: Iterable[Tuple[str, str, float, float, int, dict]],
    instants: Iterable[Tuple[str, str, float, int, dict]],
    counters: Iterable[Tuple[str, float, dict]],
    scope: str,
) -> List[dict]:
    """Chrome trace-event dicts on process id 0, times in seconds.

    ``threads`` is ``(tid, name)`` pairs; ``spans`` is ``(name,
    category, start, end, tid, args)``; ``instants`` is ``(name,
    category, ts, tid, args)`` with ``scope`` their ``"s"`` field
    (``"p"`` process-wide, ``"t"`` one thread); ``counters`` is
    ``(name, ts, args)``.  Events come out in that order: process name,
    thread names, spans, instants, counters.
    """
    events = [_metadata("process_name", 0, process_name)]
    events.extend(_metadata("thread_name", tid, name) for tid, name in threads)
    for name, category, start, end, tid, args in spans:
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": start * _US,
                "dur": (end - start) * _US,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for name, category, ts, tid, args in instants:
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": scope,
                "ts": ts * _US,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for name, ts, args in counters:
        events.append(
            {"name": name, "ph": "C", "ts": ts * _US, "pid": 0, "args": args}
        )
    return events


def with_pid(
    events: Iterable[dict], pid: int, process_name: Optional[str] = None
) -> List[dict]:
    """Re-home exported events onto process ``pid``.

    Used when merging traces from several sweep tasks into one file:
    each task exported with ``pid=0``; the merger gives every task its
    own process row (and optionally renames it).
    """
    rehomed = []
    for event in events:
        event = dict(event, pid=pid)
        if (
            process_name is not None
            and event.get("ph") == "M"
            and event.get("name") == "process_name"
        ):
            event["args"] = {"name": process_name}
        rehomed.append(event)
    return rehomed


def write_chrome_trace(
    destination: Union[str, IO[str]], events: List[dict]
) -> int:
    """Write ``events`` as a Chrome trace JSON object; returns the count.

    The output loads directly in Perfetto / ``chrome://tracing`` and
    round-trips through ``json.load``.  A path destination is written
    through :func:`~repro.obs.export.atomic_write`.
    """
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if hasattr(destination, "write"):
        json.dump(payload, destination)
    else:
        with atomic_write(destination) as handle:
            json.dump(payload, handle)
    return len(events)
