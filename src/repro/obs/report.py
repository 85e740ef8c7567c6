"""One fold of a campaign's event log, and the HTML run report on it.

A :class:`~repro.obs.monitor.CampaignMonitor` writes nothing but its
append-only ``events.jsonl``.  :class:`CampaignFold` folds those
records, one at a time, into the three views of a campaign:

* :meth:`CampaignFold.status` -- the machine-readable state: durable
  and live progress, per-shard states, worker utilization, straggler
  lag, supervision counters, drive-years/s and, once the campaign
  ended, its final result and merged counters;
* :meth:`CampaignFold.summary` -- the post-run KPIs: shard durations,
  kernel-phase timings and the merged telemetry;
* :meth:`CampaignFold.spans` and :meth:`CampaignFold.chrome_events` --
  the campaign → shard → attempt → kernel-phase flame view, written as
  a Perfetto trace only when a reader asks for one.

The live monitor feeds its fold each record as it appends it, so the
status of a running campaign and the one read back from its log come
from one code path.  The log persists across resume and a
``campaign_started`` record starts the fold afresh: a log folds to its
last run, and a run killed mid-way folds to the status its monitor last
showed.  Time is the records' own: ``mono`` (the monitor's monotonic
clock) for ages and durations, ``t`` (wall clock) for the ``*_unix``
stamps; a reader with no clock of its own sees the views as of the last
record.

:func:`build_report` renders the fold as one static HTML page -- inline
CSS, inline SVG, zero external assets -- that answers the operator's
post-run questions:

* how reliable was each policy? (per-policy MTTDL / P(loss) table,
  Monte-Carlo CI next to the closed-form prediction);
* how did the run behave? (shard duration histogram, retry /
  timeout / stall / speculation counters, worker utilization);
* where did the time go? (kernel-phase wall-time table).

Everything is computed from the log on disk, so reports can be built
long after the campaign, on a different machine, with no simulator
import.
"""

from __future__ import annotations

import html
import json
import os
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.export import atomic_write
from repro.obs.spans import Span, span_id
from repro.obs.trace import encode_events
from repro.raid.reliability import HOURS_PER_YEAR

__all__ = [
    "STATUS_VERSION", "CampaignFold", "build_report", "load_obs_dir",
    "read_events", "render_html",
]

STATUS_VERSION = 1

#: ``attempt_failed`` kinds that have their own supervision counter.
_FAILURE_COUNTERS = {
    "timeout": "timeouts", "stall": "stalls", "death": "worker_deaths",
}

#: Shard states whose groups are checkpoint-durable.
_DURABLE = ("done", "resumed")


class _Shard:
    """What the fold knows about one shard of the campaign."""

    __slots__ = (
        "index", "state", "attempts", "done", "total", "group_count",
        "started", "last_beat", "duration", "peak_rss_kb", "error",
        "speculated",
    )

    def __init__(self, index: int, group_count: int) -> None:
        self.index = index
        self.state = "pending"  # pending|running|done|failed|resumed
        self.attempts = 0
        self.done = 0
        self.total = 0
        self.group_count = group_count
        self.started: Optional[float] = None
        self.last_beat: Optional[float] = None
        self.duration: Optional[float] = None
        self.peak_rss_kb: Optional[int] = None
        self.error: Optional[str] = None
        self.speculated = 0

    def fraction(self) -> float:
        """How much of this shard's work is done, in [0, 1]."""
        if self.state in _DURABLE:
            return 1.0
        if self.total > 0:
            return min(1.0, self.done / self.total)
        return 0.0


class CampaignFold:
    """``events.jsonl`` records → status, summary and spans.

    ``CampaignFold(read_events(path))`` folds a log on disk; the
    monitor starts an empty fold and :meth:`add`\\ s each record it
    appends.
    """

    def __init__(self, records: Iterable[dict] = ()) -> None:
        #: ``mono`` and ``t`` of the last record folded.
        self.mono: Optional[float] = None
        self.wall: Optional[float] = None
        self._start({})
        for record in records:
            self.add(record)

    def _start(self, record: dict) -> None:
        """Forget everything: a campaign (or a resume of one) starts."""
        groups = record.get("shard_groups") or []
        self.digest = record.get("campaign", "")
        self.workers = record.get("workers", 1)
        self.mission_years = record.get("mission_years", 0.0)
        self.shards: Dict[int, _Shard] = {
            index: _Shard(index, count) for index, count in enumerate(groups)
        }
        self.groups_total = sum(groups)
        self.started = self.mono if record else None
        self.state = "running"
        self.final: Optional[dict] = None
        self.telemetry: Optional[dict] = None
        self.drive_hours = 0.0
        self.busy_seconds = 0.0
        self.durations: List[float] = []
        self.counts: Dict[str, int] = {
            "attempts": 0, "retries": 0, "timeouts": 0,
            "worker_deaths": 0, "stalls": 0, "speculated": 0,
        }
        #: ``(mono, record)`` of the records the span tree replays.
        self._timeline: List[Tuple[float, dict]] = []
        if record:
            self._timeline.append((self.mono, record))

    # -- folding ---------------------------------------------------------

    def add(self, record: dict) -> None:
        """Fold one record; an event of no known kind changes nothing
        but the clock."""
        # A log older than the ``mono`` stamp runs on its wall clock.
        self.wall = record.get("t", self.wall)
        self.mono = record.get("mono", self.wall)
        handler = self._HANDLERS.get(record.get("event"))
        if handler is not None:
            handler(self, record)

    def _shard(self, index: int) -> _Shard:
        shard = self.shards.get(index)
        if shard is None:
            shard = self.shards[index] = _Shard(index, 0)
        return shard

    def _on_shard_resumed(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        shard.state = "resumed"
        shard.duration = 0.0
        self.drive_hours += record.get("drive_hours", 0.0)

    def _on_attempt_started(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        attempt = record.get("attempt", 1)
        speculative = record.get("speculative", False)
        shard.state = "running"
        shard.attempts = max(shard.attempts, attempt)
        if speculative:
            shard.speculated += 1
            self.counts["speculated"] += 1
        if shard.started is None or not speculative:
            shard.started = self.mono
        shard.last_beat = self.mono
        self.counts["attempts"] += 1
        if attempt > 1 and not speculative:
            self.counts["retries"] += 1
        self._timeline.append((self.mono, record))

    def _on_heartbeat(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        shard.last_beat = self.mono
        if record.get("total"):
            shard.total = record["total"]
        shard.done = max(shard.done, record.get("done") or 0)
        rss = record.get("rss_kb")
        if rss is not None:
            shard.peak_rss_kb = max(shard.peak_rss_kb or 0, int(rss))

    def _on_attempt_failed(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        shard.error = record.get("error")
        counter = _FAILURE_COUNTERS.get(record.get("kind"))
        if counter is not None:
            self.counts[counter] += 1
        self.busy_seconds += max(0.0, record.get("duration_s", 0.0))
        self._timeline.append((self.mono, record))

    def _on_shard_completed(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        duration = record.get("duration_s", 0.0)
        shard.state = "done"
        shard.duration = duration
        shard.done = shard.total or shard.done
        shard.error = None
        self.durations.append(duration)
        self.busy_seconds += max(0.0, duration)
        self.drive_hours += record.get("drive_hours", 0.0)
        self._timeline.append((self.mono, record))

    def _on_shard_failed(self, record: dict) -> None:
        shard = self._shard(record["shard"])
        shard.state = "failed"
        shard.error = record.get("error")

    def _on_campaign_finished(self, record: dict) -> None:
        self.state = record.get("state", "done")
        self.final = record.get("final")
        self.telemetry = record.get("telemetry")
        supervision = (self.final or {}).get("supervision") or {}
        for key, value in supervision.items():
            if key in self.counts:
                self.counts[key] = max(self.counts[key], int(value))
        self._timeline.append((self.mono, record))

    _HANDLERS = {
        "campaign_started": _start,
        "shard_resumed": _on_shard_resumed,
        "attempt_started": _on_attempt_started,
        "heartbeat": _on_heartbeat,
        "attempt_failed": _on_attempt_failed,
        "shard_completed": _on_shard_completed,
        "shard_failed": _on_shard_failed,
        "campaign_finished": _on_campaign_finished,
    }

    # -- views -------------------------------------------------------------

    def progress(self) -> float:
        """Durable progress: fraction of groups landed (in [0, 1]).

        Counts only shards that are checkpoint-durable (``done`` or
        ``resumed``), which makes this number **monotone across kill +
        resume**: in-flight partial work is excluded precisely because
        a SIGKILL loses it.  The smoke test asserts this monotonicity;
        use :meth:`live_progress` for the streaming estimate.
        """
        if not self.groups_total:
            return 0.0
        return min(1.0, self._groups_done() / self.groups_total)

    def _groups_done(self) -> int:
        return sum(
            shard.group_count
            for shard in self.shards.values()
            if shard.state in _DURABLE
        )

    def live_progress(self) -> float:
        """Progress including in-flight shards' heartbeat fractions."""
        if not self.groups_total:
            return 0.0
        done = sum(
            shard.group_count * shard.fraction()
            for shard in self.shards.values()
        )
        return min(1.0, done / self.groups_total)

    def _elapsed(self, now: Optional[float]) -> float:
        if self.started is None or now is None:
            return 0.0
        return now - self.started

    def _utilization(self, now: Optional[float]) -> float:
        """Busy worker-seconds over available worker-seconds."""
        elapsed = self._elapsed(now)
        if elapsed <= 0:
            return 0.0
        busy = self.busy_seconds
        for shard in self.shards.values():
            if shard.state == "running" and shard.started is not None:
                busy += now - shard.started
        return min(1.0, busy / (elapsed * self.workers))

    def _stragglers(self, now: Optional[float]) -> List[dict]:
        """Running shards whose age exceeds the median done duration."""
        if not self.durations or now is None:
            return []
        median = sorted(self.durations)[len(self.durations) // 2]
        lagging = []
        for shard in self.shards.values():
            if shard.state != "running" or shard.started is None:
                continue
            age = now - shard.started
            if age > median:
                lagging.append(
                    {
                        "shard": shard.index,
                        "age_s": round(age, 3),
                        "lag_s": round(age - median, 3),
                        "progress": round(shard.fraction(), 4),
                    }
                )
        lagging.sort(key=lambda entry: -entry["lag_s"])
        return lagging

    def status(
        self, now: Optional[float] = None, wall: Optional[float] = None
    ) -> dict:
        """The machine-readable status as of monotonic ``now`` and wall
        clock ``wall`` (default: the last record's)."""
        now = self.mono if now is None else now
        elapsed = self._elapsed(now)
        drive_years = self.drive_hours / HOURS_PER_YEAR
        states = Counter(shard.state for shard in self.shards.values())
        per_shard = []
        for index in sorted(self.shards):
            shard = self.shards[index]
            per_shard.append(
                {
                    "index": index,
                    "state": shard.state,
                    "attempts": shard.attempts,
                    "progress": round(shard.fraction(), 6),
                    "duration_s": (
                        round(shard.duration, 6)
                        if shard.duration is not None else None
                    ),
                    "last_beat_age_s": (
                        round(now - shard.last_beat, 3)
                        if shard.last_beat is not None
                        and shard.state == "running"
                        else None
                    ),
                    "peak_rss_kb": shard.peak_rss_kb,
                    "error": shard.error,
                }
            )
        payload = {
            "version": STATUS_VERSION,
            "campaign": self.digest,
            "state": self.state,
            "updated_unix": self.wall if wall is None else wall,
            "elapsed_s": round(elapsed, 3),
            "progress": round(self.progress(), 6),
            "progress_live": round(self.live_progress(), 6),
            "shards": {
                "total": len(self.shards),
                "done": states["done"] + states["resumed"],
                "failed": states["failed"],
                "resumed": states["resumed"],
                "running": states["running"],
            },
            "groups": {"total": self.groups_total, "done": self._groups_done()},
            "throughput": {
                "drive_years": round(drive_years, 3),
                "drive_years_per_s": (
                    round(drive_years / elapsed, 3) if elapsed > 0 else 0.0
                ),
            },
            "workers": {
                "configured": self.workers,
                "busy": states["running"],
                "utilization": round(self._utilization(now), 4),
            },
            "supervision": dict(self.counts),
            "counters": dict((self.telemetry or {}).get("counters", {})),
            "stragglers": self._stragglers(now),
            "per_shard": per_shard,
        }
        if self.final is not None:
            payload["final"] = self.final
        return payload

    def summary(self) -> dict:
        """The post-run KPIs as of the last record."""
        return {
            "version": STATUS_VERSION,
            "campaign": self.digest,
            "state": self.state,
            "generated_unix": self.wall,
            "elapsed_s": round(self._elapsed(self.mono), 3),
            "mission_years": self.mission_years,
            "workers": self.workers,
            "utilization": round(self._utilization(self.mono), 4),
            "supervision": dict(self.counts),
            "shard_durations_s": [round(d, 6) for d in self.durations],
            "drive_years": round(self.drive_hours / HOURS_PER_YEAR, 3),
            "final": self.final,
            "telemetry": self.telemetry or {
                "counters": {}, "gauges": {}, "histograms": {},
            },
            "phases": self._phase_summary(),
        }

    def _phase_summary(self) -> List[dict]:
        """Kernel-phase wall time across landed shards, by phase."""
        totals: Dict[str, List[float]] = {}
        for _, record in self._timeline:
            for phase in record.get("phases") or ():
                totals.setdefault(f"policy {phase['policy']}", []).append(
                    max(0.0, phase.get("wall_s", 0.0))
                )
        return [
            {
                "name": name,
                "count": len(walls),
                "total_s": round(sum(walls), 6),
                "mean_s": round(sum(walls) / len(walls), 6),
                "max_s": round(max(walls), 6),
            }
            for name, walls in sorted(totals.items())
        ]

    def spans(self) -> Tuple[Dict[int, str], List[Span]]:
        """Replay the span tree: ``({tid: thread name}, spans)``.

        Spans come in completion order, then the ones still open as if
        they ended at the last record; times are seconds since the
        campaign span opened.  Thread 0 carries the campaign, thread
        ``shard + 1`` a shard's attempts, kernel phases and failure
        markers.  Ending a span that is not open changes nothing;
        opening one that is replaces it.
        """
        if self.started is None:
            return {}, []
        digest, epoch = self.digest, self.started
        threads = {0: "campaign"}
        opened: Dict[int, Span] = {}
        closed: List[Span] = []

        def end(at: float, args: dict, *path) -> None:
            span = opened.pop(span_id(digest, *path), None)
            if span is not None:
                span.end = at
                span.args.update(args)
                closed.append(span)

        for mono, record in self._timeline:
            at = mono - epoch
            event = record["event"]
            shard = record.get("shard")
            attempt = record.get("attempt", 1)
            if event == "campaign_started":
                shards = record.get("shards", 0)
                threads.update((i + 1, f"shard {i}") for i in range(shards))
                sid = span_id(digest, "campaign")
                opened[sid] = Span(
                    sid, f"campaign {digest[:12]}", "campaign", 0, at,
                    {"shards": shards, "groups": record.get("groups")},
                )
            elif event == "attempt_started":
                speculative = record.get("speculative", False)
                sid = span_id(
                    digest, "shard", shard, "attempt", attempt,
                    *(("spec",) if speculative else ()),
                )
                opened[sid] = Span(
                    sid,
                    f"shard {shard} attempt {attempt}"
                    + (" (speculative)" if speculative else ""),
                    "attempt", shard + 1, at,
                    {"attempt": attempt, "speculative": speculative},
                )
            elif event == "attempt_failed":
                kind, error = record.get("kind"), record.get("error")
                end(at, {"outcome": kind, "error": error},
                    "shard", shard, "attempt", attempt)
                marker = Span(
                    0, f"shard {shard} {kind}", "failure", shard + 1, at,
                    {"attempt": attempt, "error": error},
                )
                marker.end = at
                closed.append(marker)
            elif event == "shard_completed":
                end(at, {"outcome": "ok", "groups": record.get("groups")},
                    "shard", shard, "attempt", attempt)
                phases = record.get("phases") or []
                start = at - sum(p.get("wall_s", 0.0) for p in phases)
                for phase in phases:
                    wall, name = phase.get("wall_s", 0.0), phase["policy"]
                    span = Span(
                        span_id(digest, "shard", shard, "attempt", attempt,
                                "phase", name),
                        f"policy {name}", "phase", shard + 1, start,
                        {"wall_s": wall},
                    )
                    span.end = start + max(0.0, wall)
                    closed.append(span)
                    start += wall
            elif event == "campaign_finished":
                end(at, {"state": record.get("state")}, "campaign")
        for span in opened.values():
            span.end = self.mono - epoch
        return threads, closed + list(opened.values())

    def chrome_events(self) -> List[dict]:
        """The span tree as Chrome trace-event dicts on process id 0
        (feed :func:`~repro.obs.trace.write_chrome_trace`)."""
        threads, spans = self.spans()
        timed, markers = [], []
        for span in spans:
            if span.sid == 0 and span.end == span.start:
                markers.append(
                    (span.name, span.category, span.start, span.tid, span.args)
                )
            else:
                timed.append(
                    (
                        span.name, span.category, span.start, span.end,
                        span.tid, dict(span.args, span_id=f"{span.sid:016x}"),
                    )
                )
        return encode_events(
            "campaign", sorted(threads.items()), timed, markers, (), scope="t"
        )


def read_events(path: str) -> List[dict]:
    """The records of an ``events.jsonl``, skipping a torn line; raises
    ``OSError`` when there is no log."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn tail line from a crash: skip
    return records


def load_obs_dir(obs_dir: str) -> dict:
    """Fold the campaign log in ``obs_dir``.

    Returns ``{"status": ..., "summary": ..., "events": [...]}``;
    raises ``FileNotFoundError`` when there is no ``events.jsonl``.
    """
    path = os.path.join(obs_dir, "events.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no events.jsonl under {obs_dir!r} "
            "(run the campaign with --monitor first)"
        )
    events = read_events(path)
    fold = CampaignFold(events)
    return {"status": fold.status(), "summary": fold.summary(), "events": events}


def _svg_histogram(values: List[float]) -> str:
    """A dependency-free 640 x 180 SVG bar histogram of shard durations
    in 24 bins."""
    width, height, bins = 640, 180, 24
    if not values:
        return "<p class='empty'>no shard durations recorded</p>"
    low = min(values)
    high = max(values)
    span = (high - low) or max(high, 1e-9)
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - low) / span * bins))
        counts[index] += 1
    peak = max(counts)
    bar_w = width / bins
    bars = []
    for index, count in enumerate(counts):
        if not count:
            continue
        bar_h = (count / peak) * (height - 30)
        x = index * bar_w
        y = height - 20 - bar_h
        lo = low + span * index / bins
        hi = low + span * (index + 1) / bins
        bars.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 2:.1f}" '
            f'height="{bar_h:.1f}" class="bar">'
            f"<title>{count} shard(s) in [{lo:.3f}s, {hi:.3f}s)</title></rect>"
        )
    labels = (
        f'<text x="2" y="{height - 6}" class="axis">{low:.3f}s</text>'
        f'<text x="{width - 4}" y="{height - 6}" class="axis" '
        f'text-anchor="end">{high:.3f}s</text>'
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">{"".join(bars)}{labels}</svg>'
    )


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "∞"
    if isinstance(value, float):
        if value != value:  # NaN
            return "—"
        return f"{value:.{digits}g}"
    return html.escape(str(value))


def _policy_table(policies: List[dict]) -> str:
    if not policies:
        return "<p class='empty'>no policy estimates</p>"
    rows = []
    for policy in policies:
        ci = policy.get("mttdl_ci_years") or [None, None]
        p_ci = policy.get("p_loss_ci") or [None, None]
        modes = policy.get("losses_by_mode") or {}
        mode_text = ", ".join(
            f"{mode}={count}" for mode, count in sorted(modes.items()) if count
        ) or "—"
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(policy.get('name', '?')))}</td>"
            f"<td class='num'>{policy.get('groups', 0):,}</td>"
            f"<td class='num'>{_fmt(policy.get('drive_years'), 6)}</td>"
            f"<td class='num'>{policy.get('losses', 0):,}</td>"
            f"<td>{mode_text}</td>"
            f"<td class='num'>{_fmt(policy.get('mttdl_years'))}</td>"
            f"<td class='num'>[{_fmt(ci[0])}, {_fmt(ci[1])}]</td>"
            f"<td class='num'>{_fmt(policy.get('p_loss_mission'))}</td>"
            f"<td class='num'>[{_fmt(p_ci[0])}, {_fmt(p_ci[1])}]</td>"
            f"<td class='num'>{_fmt(policy.get('closed_form_p_loss'))}</td>"
            f"<td class='num'>{_fmt(policy.get('latent_window_hours'))}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th>policy</th><th>groups</th><th>drive-years</th><th>losses</th>"
        "<th>by mode</th><th>MTTDL (y)</th><th>95% CI</th>"
        "<th>P(loss)</th><th>95% CI</th><th>closed-form P</th>"
        "<th>latent window (h)</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _phase_table(phases: List[dict]) -> str:
    if not phases:
        return "<p class='empty'>no phase timings recorded</p>"
    rows = [
        "<tr>"
        f"<td>{html.escape(str(phase.get('name', '?')))}</td>"
        f"<td class='num'>{phase.get('count', 0):,}</td>"
        f"<td class='num'>{_fmt(phase.get('total_s'))}</td>"
        f"<td class='num'>{_fmt(phase.get('mean_s'))}</td>"
        f"<td class='num'>{_fmt(phase.get('max_s'))}</td>"
        "</tr>"
        for phase in phases
    ]
    return (
        "<table><thead><tr>"
        "<th>phase</th><th>spans</th><th>total (s)</th>"
        "<th>mean (s)</th><th>max (s)</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a2e; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; background: #fff; }
th, td { border: 1px solid #ccc; padding: .3rem .55rem; text-align: left; }
th { background: #eef; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { fill: #4a6fa5; } .bar:hover { fill: #c0504d; }
.axis { font-size: 11px; fill: #555; }
.kpis { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.kpi { background: #fff; border: 1px solid #ccc; border-radius: 6px;
       padding: .5rem .9rem; }
.kpi b { display: block; font-size: 1.25rem; }
.degraded { color: #c0504d; font-weight: 600; }
.empty { color: #777; font-style: italic; }
footer { margin-top: 2rem; color: #777; font-size: .85rem; }
"""


def render_html(data: dict) -> str:
    """Render a folded log (:func:`load_obs_dir`) as one self-contained
    page."""
    summary, status = data["summary"], data["status"]
    final = summary["final"] or {}
    digest = summary["campaign"] or "?"
    state = summary["state"]
    elapsed = summary["elapsed_s"]
    drive_years = summary["drive_years"]
    utilization = summary["utilization"]
    supervision = summary["supervision"]
    durations = summary["shard_durations_s"]
    policies = final.get("policies") or []
    completeness = final.get("completeness")
    state_class = "degraded" if state == "degraded" else ""
    rate = drive_years / elapsed if elapsed else 0.0

    kpis = [
        ("state", f"<span class='{state_class}'>{html.escape(state)}</span>"),
        ("wall time", f"{elapsed:,.1f}s"),
        ("drive-years", f"{drive_years:,.0f}"),
        ("drive-years/s", f"{rate:,.0f}"),
        ("utilization", f"{utilization * 100:.0f}%"),
        (
            "shards",
            f"{final.get('shards_completed', '?')}"
            f"/{final.get('shards_total', '?')}"
            + (
                f" ({final.get('shards_resumed')} resumed)"
                if final.get("shards_resumed")
                else ""
            ),
        ),
    ]
    if completeness is not None:
        kpis.append(("completeness", f"{completeness * 100:.2f}%"))
    kpi_html = "".join(
        f"<div class='kpi'><b>{value}</b>{html.escape(label)}</div>"
        for label, value in kpis
    )

    sup_items = " · ".join(
        f"{html.escape(key)}: {value:,}"
        for key, value in sorted(supervision.items())
    ) or "none recorded"

    failed = final.get("failed_shards") or [
        row["index"] for row in status["per_shard"] if row["state"] == "failed"
    ]
    errors = {
        row["index"]: row["error"]
        for row in status["per_shard"]
        if row["state"] == "failed" and row["error"]
    }
    failed_html = (
        "<p class='degraded'>failed shards: "
        + ", ".join(
            f"{index}"
            + (f" ({html.escape(errors[index])})" if index in errors else "")
            for index in failed
        )
        + "</p>"
        if failed
        else ""
    )

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro campaign report — {html.escape(digest[:12])}</title>
<style>{_CSS}</style></head><body>
<h1>Fleet campaign report <code>{html.escape(digest[:16])}</code></h1>
<div class="kpis">{kpi_html}</div>
{failed_html}
<h2>Per-policy reliability</h2>
{_policy_table(policies)}
<h2>Shard durations</h2>
{_svg_histogram(durations)}
<h2>Supervision</h2>
<p>{sup_items}</p>
<h2>Kernel phase timings</h2>
{_phase_table(summary["phases"])}
<footer>generated from {len(data["events"])}
logged events · repro.obs report</footer>
</body></html>
"""


def build_report(
    obs_dir: str, out_path: Optional[str] = None, data: Optional[dict] = None
) -> str:
    """Build the HTML report for ``obs_dir``; returns the output path.

    ``data`` is ``load_obs_dir(obs_dir)`` when the caller has folded the
    log already; it is read and folded here otherwise.  Writes
    atomically (temp + rename) so a half-generated report never
    replaces a good one.
    """
    if data is None:
        data = load_obs_dir(obs_dir)
    target = out_path or os.path.join(obs_dir, "report.html")
    text = render_html(data)
    with atomic_write(target) as handle:
        handle.write(text)
    return target
