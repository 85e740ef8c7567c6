"""Campaign-scale observability: spans, live aggregation, reports.

``repro.obs`` is the layer above :mod:`repro.telemetry`: where a
Recorder watches one simulation from the inside, this package watches
a whole fleet campaign from the outside — per-worker progress probes
(:mod:`~repro.obs.worker`), deterministic hierarchical span tracing
(:mod:`~repro.obs.spans`), the live cross-process aggregator writing
``status.json`` / ``events.jsonl`` (:mod:`~repro.obs.monitor`), a
Prometheus textfile exporter (:mod:`~repro.obs.prometheus`) and a
self-contained HTML run report (:mod:`~repro.obs.report`).

Everything here is *passive*: campaign results are bit-identical with
observability on or off.
"""

from repro.obs.monitor import (
    STATUS_VERSION,
    CampaignMonitor,
    read_events_chunk,
)
from repro.obs.prometheus import prometheus_lines, write_textfile
from repro.obs.report import build_report, load_obs_dir, render_html
from repro.obs.spans import Span, SpanRecorder, span_id
from repro.obs.worker import PROBE, WorkerProbe, peak_rss_kb

__all__ = [
    "CampaignMonitor",
    "PROBE",
    "STATUS_VERSION",
    "Span",
    "SpanRecorder",
    "WorkerProbe",
    "build_report",
    "load_obs_dir",
    "read_events_chunk",
    "peak_rss_kb",
    "prometheus_lines",
    "render_html",
    "span_id",
    "write_textfile",
]
