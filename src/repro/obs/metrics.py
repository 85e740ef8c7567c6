"""Streaming metrics: counters, gauges and log-scale histograms.

A :class:`MetricsRegistry` is a flat namespace of named metrics that
simulation components update as they run.  Everything here is built for
two properties the rest of :mod:`repro.obs` leans on:

* **No sample retention.**  :class:`Histogram` keeps fixed, log-spaced
  buckets (a coarse HdrHistogram), so latency percentiles over millions
  of requests cost a few hundred integers, not a few hundred megabytes.
* **Deterministic snapshots and merges.**  A snapshot is a plain nested
  dict of ints/floats; :func:`merge_snapshots` folds per-task snapshots
  into a fleet-level summary in *input* order, so a parallel sweep
  merged task-by-task is bit-identical to the same sweep run serially
  (counters and histogram buckets add; gauges take the maximum, the
  only order-independent choice for point-in-time values).

Nothing in this module imports from the simulator, so it can be used
from worker processes and analysis scripts alike.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_table",
    "merge_snapshots",
]


class Counter:
    """A monotonically increasing sum (requests, bytes, events...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, progress fraction...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Histogram bucket layout: geometric buckets over [LOW, HIGH) seconds
#: plus an underflow and an overflow bucket.  Four buckets per decade
#: resolve percentiles to ~1.78x, plenty for service-time shapes.
_HIST_LOW = 1e-7
_HIST_HIGH = 1e4
_HIST_PER_DECADE = 4
_HIST_DECADES = int(round(math.log10(_HIST_HIGH / _HIST_LOW)))
_HIST_BUCKETS = _HIST_DECADES * _HIST_PER_DECADE
_LOG_LOW = math.log10(_HIST_LOW)


class Histogram:
    """Fixed-bucket log-scale streaming histogram.

    ``observe`` is O(1) and allocation-free; percentiles come from the
    bucket counts of a snapshot (reported as the bucket's geometric
    upper bound, a deterministic over-estimate of at most one bucket
    width).
    """

    __slots__ = ("name", "count", "total", "min", "max", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # [underflow, bucket 0 .. N-1, overflow]
        self.counts: List[int] = [0] * (_HIST_BUCKETS + 2)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < _HIST_LOW:
            index = 0
        elif value >= _HIST_HIGH:
            index = _HIST_BUCKETS + 1
        else:
            index = 1 + int((math.log10(value) - _LOG_LOW) * _HIST_PER_DECADE)
        self.counts[index] += 1

    @staticmethod
    def bucket_bound(index: int) -> float:
        """Upper value bound of bucket ``index`` of :attr:`counts`."""
        if index <= 0:
            return _HIST_LOW
        if index >= _HIST_BUCKETS + 1:
            return math.inf
        return 10.0 ** (_LOG_LOW + index / _HIST_PER_DECADE)


class MetricsRegistry:
    """Named counters, gauges and histograms with create-on-first-use."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> dict:
        """A plain-dict copy of every metric (JSON- and pickle-safe)."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self.counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min if metric.count else 0.0,
                    "max": metric.max if metric.count else 0.0,
                    "counts": list(metric.counts),
                }
                for name, metric in sorted(self.histograms.items())
            },
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-task metric snapshots into one fleet-level summary.

    Counters and histogram buckets add, gauges keep the maximum.  The
    fold visits ``snapshots`` in iteration order and every operation is
    order-independent, so a fleet summary built from a parallel sweep's
    results (which :class:`~repro.parallel.runner.SweepRunner` returns
    in input order) is bit-identical to the serial one.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        if snapshot is None:
            continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, hist in snapshot.get("histograms", {}).items():
            into = histograms.get(name)
            if into is None:
                histograms[name] = {
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist["min"],
                    "max": hist["max"],
                    "counts": list(hist["counts"]),
                }
                continue
            had_samples = into["count"] > 0
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
            if hist["count"]:
                if had_samples:
                    into["min"] = min(into["min"], hist["min"])
                    into["max"] = max(into["max"], hist["max"])
                else:
                    into["min"] = hist["min"]
                    into["max"] = hist["max"]
            into["counts"] = [
                a + b for a, b in zip(into["counts"], hist["counts"])
            ]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def _snapshot_percentile(hist: dict, q: float) -> float:
    """Approximate ``q``-quantile (``0 <= q <= 1``) of a snapshot
    histogram: the upper bound of the bucket holding rank ``q * count``,
    capped at the largest sample."""
    count = hist["count"]
    if count == 0:
        return 0.0
    rank = q * count
    seen = 0
    for index, bucket in enumerate(hist["counts"]):
        seen += bucket
        if seen >= rank and bucket:
            bound = Histogram.bucket_bound(index)
            return min(bound, hist["max"]) if math.isfinite(bound) else hist["max"]
    return hist["max"]


def format_table(snapshot: dict, title: Optional[str] = None) -> str:
    """Render a metrics snapshot as a plain-text summary table."""
    lines: List[str] = []
    if title:
        lines.append(f"== {title} ==")
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value:>14,}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:>14.6g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        width = max(len(name) for name in histograms)
        lines.append(
            f"histograms:{'':<{max(0, width - 7)}}"
            f"{'count':>10}{'mean':>11}{'p50':>11}{'p95':>11}{'p99':>11}{'max':>11}"
        )
        for name, hist in histograms.items():
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            lines.append(
                f"  {name:<{width}} {count:>9,}"
                f"{mean:>11.3g}"
                f"{_snapshot_percentile(hist, 0.50):>11.3g}"
                f"{_snapshot_percentile(hist, 0.95):>11.3g}"
                f"{_snapshot_percentile(hist, 0.99):>11.3g}"
                f"{hist['max']:>11.3g}"
            )
    if not (counters or gauges or histograms):
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
