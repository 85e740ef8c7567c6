"""Chrome trace-event JSON export.

Converts a :class:`~repro.telemetry.sink.Recorder` into the Trace Event
Format consumed by Perfetto (https://ui.perfetto.dev) and the legacy
``chrome://tracing`` viewer: a ``{"traceEvents": [...]}`` object whose
entries use microsecond timestamps.

Mapping from the simulator's blktrace-style lifecycle:

* each completed request becomes **two complete ("X") spans** on its
  source's track — ``wait <opcode>`` from queued to dispatched, and
  ``<opcode>`` from dispatched to completed, with the drive's
  seek/rotation/transfer breakdown in ``args``;
* scrub pass boundaries and fault lifecycle steps become **instant
  ("i") events**;
* scrub progress becomes a **counter ("C") track**, drawn by the viewer
  as a filled time series;
* sources ("foreground", "scrubber", ...) become named threads of one
  process, via metadata ("M") events.

Simulation seconds map to trace microseconds 1:1 in value (``ts = now *
1e6``), so one viewer microsecond equals one simulated microsecond.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Union

from repro.telemetry.export import atomic_write

__all__ = [
    "recorder_events",
    "with_pid",
    "write_chrome_trace",
]

_US = 1e6  # simulation seconds -> trace microseconds


def recorder_events(recorder, process_name: str = "sim") -> List[dict]:
    """Flatten one recorder into a list of Chrome trace-event dicts on
    process id 0 (:func:`with_pid` re-homes them)."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    tids = {}

    def tid_of(source: str) -> int:
        tid = tids.get(source)
        if tid is None:
            tid = tids[source] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": source},
                }
            )
        return tid

    for (
        submit,
        dispatch,
        complete,
        opcode,
        lbn,
        sectors,
        priority,
        source,
        seek,
        rotation,
        transfer,
        cache_hit,
        status,
    ) in recorder.requests:
        tid = tid_of(source)
        args = {
            "lbn": lbn,
            "sectors": sectors,
            "priority": priority,
            "source": source,
        }
        events.append(
            {
                "name": f"wait {opcode}",
                "cat": "queue",
                "ph": "X",
                "ts": submit * _US,
                "dur": (dispatch - submit) * _US,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
        events.append(
            {
                "name": opcode,
                "cat": "service",
                "ph": "X",
                "ts": dispatch * _US,
                "dur": (complete - dispatch) * _US,
                "pid": 0,
                "tid": tid,
                "args": {
                    **args,
                    "seek_s": seek,
                    "rotation_s": rotation,
                    "transfer_s": transfer,
                    "cache_hit": cache_hit,
                    "status": status,
                },
            }
        )

    for ts, category, name, args in recorder.instants:
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "p",
                "ts": ts * _US,
                "pid": 0,
                "tid": 0,
                "args": args or {},
            }
        )

    for ts, source, fraction in recorder.progress_samples:
        events.append(
            {
                "name": f"scrub progress ({source})",
                "ph": "C",
                "ts": ts * _US,
                "pid": 0,
                "args": {"fraction": round(fraction, 6)},
            }
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
    through :func:`~repro.telemetry.export.atomic_write`.
    """
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if hasattr(destination, "write"):
        json.dump(payload, destination)
    else:
        with atomic_write(destination) as handle:
            json.dump(payload, handle)
    return len(events)
