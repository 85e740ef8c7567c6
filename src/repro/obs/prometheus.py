"""Prometheus textfile exporter for metrics snapshots.

Serialises any :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
(or :func:`~repro.obs.metrics.merge_snapshots` result) into the
Prometheus text exposition format, suitable for the node_exporter
textfile collector: counters become ``TYPE counter``, gauges become
``TYPE gauge``, and the fixed log-bucket histograms become native
Prometheus histograms with cumulative ``_bucket{le=...}`` series plus
``_count`` and ``_sum``.

Metric names are sanitised (``sim.requests.completed`` →
``repro_sim_requests_completed``); values render with :func:`repr` so
the round trip through text is lossless for floats.  Writing goes
through :func:`~repro.obs.export.atomic_write` because
node_exporter may scrape the directory at any moment.
"""

from __future__ import annotations

import math
import re
from typing import List

from repro.obs.export import atomic_write
from repro.obs.metrics import Histogram

__all__ = ["prometheus_lines", "write_textfile"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


def prometheus_lines(snapshot: dict) -> List[str]:
    """Render a metrics snapshot as Prometheus exposition-format lines,
    every metric name prefixed ``repro_``."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for index, bucket in enumerate(hist["counts"]):
            cumulative += bucket
            bound = Histogram.bucket_bound(index)
            lines.append(
                f'{metric}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}'
            )
        lines.append(f"{metric}_count {hist['count']}")
        lines.append(f"{metric}_sum {_fmt(hist['sum'])}")
    return lines


def write_textfile(path: str, snapshot: dict) -> int:
    """Atomically write ``snapshot`` in exposition format; returns lines.

    Safe against concurrent scrapes: the file at ``path`` is always
    either the previous complete export or the new one, never partial.
    """
    lines = prometheus_lines(snapshot)
    with atomic_write(path) as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)
