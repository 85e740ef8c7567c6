"""Observability for the whole stack: tracing, metrics, exports.

The subsystem is modelled on Linux blktrace (whose queue -> dispatch ->
complete request lifecycle the paper's kernel scrubbing framework sits
on top of): instrumented layers call typed hooks on a
:class:`TelemetrySink`, and the shipped :class:`Recorder` turns those
hooks into

* **structured lifecycle events** — per-request service timelines with
  the drive's seek/rotation/transfer breakdown, scrub pass boundaries
  and progress, fault detection/remediation steps, engine run stats —
  exportable as Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``, :mod:`repro.telemetry.trace`);
* a **metrics registry** of counters, gauges and fixed-bucket log-scale
  streaming histograms (latency percentiles without sample retention,
  :mod:`repro.telemetry.metrics`), with deterministic snapshot merging
  for fleet-level summaries of parallel sweeps;
* **JSON Lines exports** of the request and error logs for offline
  post-processing (:mod:`repro.telemetry.export`).

The default is the :data:`NULL_SINK` (recording off), whose cost is one
attribute test per hook site — the simulation kernel's hot loop stays
untouched (see ``benchmarks/perf_telemetry.py``).  Recording never
perturbs a run: sinks only observe, so all determinism guarantees
(serial == parallel bit-identity included) hold with telemetry on or
off.

Quickstart::

    from repro.telemetry import Recorder, format_table, write_chrome_trace

    recorder = Recorder()
    sim = Simulation(telemetry=recorder)
    ...                                   # build devices, scrub, run
    print(format_table(recorder.metrics.snapshot(), title="run"))
    write_chrome_trace("trace.json", recorder.chrome_events())
"""

from repro.telemetry.export import (
    error_log_records,
    request_log_records,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_table,
    merge_snapshots,
)
from repro.telemetry.sink import (
    NULL_SINK,
    NullSink,
    Recorder,
    TelemetrySink,
)
from repro.telemetry.trace import recorder_events, with_pid, write_chrome_trace

__all__ = [
    "NULL_SINK",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSink",
    "Recorder",
    "TelemetrySink",
    "error_log_records",
    "format_table",
    "merge_snapshots",
    "recorder_events",
    "request_log_records",
    "with_pid",
    "write_chrome_trace",
    "write_jsonl",
]
