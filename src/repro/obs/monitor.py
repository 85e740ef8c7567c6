"""Live campaign aggregation: status, events, spans, progress.

:class:`CampaignMonitor` is the supervisor-side half of campaign
observability.  The :class:`~repro.fleet.campaign.CampaignRunner`
feeds it lifecycle events — shard attempts starting, heartbeat
progress samples shipped over the supervision pipes, shards landing
or failing — and the monitor folds them into four operator surfaces:

* :meth:`CampaignMonitor.status` — the machine-readable live view
  (progress, per-shard states, worker utilization, straggler lag,
  retry counters, drive-years/s), which the service answers while the
  campaign runs; written once, as ``status.json``, when it finishes;
* ``events.jsonl`` — an append-only event log, one flushed line per
  event, that *persists across resume*, so a campaign killed and
  resumed leaves one continuous, monotone progress record;
* a :class:`~repro.obs.spans.SpanRecorder` — the campaign → shard →
  attempt → kernel-phase flame view, written as ``trace.json`` for
  Perfetto;
* periodic progress lines through an optional callback (the CLI's
  ``--monitor`` stream).

Metric snapshots from landed shards merge incrementally with
:func:`~repro.obs.metrics.merge_snapshots`; every merge
operation is order-independent, so the monitor's live view converges
to exactly the campaign's final merged telemetry.  One lock orders the
lifecycle methods and :meth:`~CampaignMonitor.status`, so a reader on
another thread never loses a landed shard to a concurrent fold.

**Passivity is the contract.**  The monitor only *observes*: it never
touches a result dict, and every filesystem write is wrapped so an
unwritable output directory degrades monitoring, never the campaign.
Simulation results are bit-identical with a monitor attached or not.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.obs.export import atomic_write
from repro.obs.metrics import merge_snapshots
from repro.obs.spans import SpanRecorder
from repro.obs.trace import write_chrome_trace
from repro.raid.reliability import HOURS_PER_YEAR

__all__ = ["CampaignMonitor", "STATUS_VERSION", "read_events_chunk"]

STATUS_VERSION = 1

#: ``shard_attempt_failed`` kinds that have their own supervision counter.
_FAILURE_COUNTERS = {
    "timeout": "timeouts", "stall": "stalls", "death": "worker_deaths",
}


def _locked(method):
    """Run ``method`` under its monitor's lock."""
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return locked


class _Shard:
    """What the monitor knows about one shard of the campaign."""

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
        if self.state in ("done", "resumed"):
            return 1.0
        if self.total > 0:
            return min(1.0, self.done / self.total)
        return 0.0


class CampaignMonitor:
    """Merge worker-side samples into live operator surfaces.

    Parameters
    ----------
    out_dir:
        Directory for ``events.jsonl`` and, once the campaign
        finishes, ``status.json`` / ``trace.json`` / ``summary.json``;
        created if missing.
    interval:
        Minimum seconds between progress lines (events always log;
        pass ``0`` for a line on every event).
    on_progress:
        Optional ``(line: str) -> None`` callback for rendered
        progress lines; it runs under the monitor's lock.
    clock / wall_clock:
        Injectable monotonic and wall clocks, for tests.
    """

    def __init__(
        self,
        out_dir: str,
        interval: float = 2.0,
        on_progress: Optional[Callable[[str], None]] = None,
        clock=time.monotonic,
        wall_clock=time.time,
    ) -> None:
        self.out_dir = out_dir
        self.status_path = os.path.join(out_dir, "status.json")
        self.events_path = os.path.join(out_dir, "events.jsonl")
        self.trace_path = os.path.join(out_dir, "trace.json")
        self.summary_path = os.path.join(out_dir, "summary.json")
        self.interval = float(interval)
        self.on_progress = on_progress
        self._clock = clock
        self._wall = wall_clock
        self._started: Optional[float] = None
        self._last_line = -float("inf")
        self._lock = threading.Lock()
        self._shards: Dict[int, _Shard] = {}
        self._workers = 1
        self._digest = ""
        self._groups_total = 0
        self._policy_names: List[str] = []
        self._mission_years = 0.0
        self._disks_per_group = 1
        self._merged: Optional[dict] = None
        #: Landed shards' snapshots not yet folded into ``_merged``:
        #: the fold waits for a reader (a status, the summary).
        self._landed: List[dict] = []
        self._drive_hours = 0.0
        self._busy_seconds = 0.0
        self._durations: List[float] = []
        self._counts: Dict[str, int] = {
            "attempts": 0, "retries": 0, "timeouts": 0,
            "worker_deaths": 0, "stalls": 0, "speculated": 0,
        }
        self._state = "running"
        self._final: Optional[dict] = None
        self.spans = SpanRecorder("campaign", clock=clock)
        self.io_errors = 0
        self._events_handle = None
        os.makedirs(out_dir, exist_ok=True)

    # -- campaign lifecycle (called by CampaignRunner) ----------------

    @_locked
    def campaign_started(
        self,
        digest: str,
        shard_ranges,
        policy_names,
        workers: int,
        mission_years: float,
        disks_per_group: int,
    ) -> None:
        self._started = self._clock()
        self._digest = digest
        self._workers = max(1, int(workers))
        self._policy_names = list(policy_names)
        self._mission_years = float(mission_years)
        self._disks_per_group = int(disks_per_group)
        self._shards = {
            index: _Shard(index, count)
            for index, (start, count) in enumerate(shard_ranges)
        }
        self._groups_total = sum(s.group_count for s in self._shards.values())
        self.spans = SpanRecorder(digest, clock=self._clock)
        self.spans.name_thread(0, "campaign")
        for index in self._shards:
            self.spans.name_thread(index + 1, f"shard {index}")
        self.spans.begin(
            f"campaign {digest[:12]}", "campaign",
            category="campaign", tid=0,
            args={"shards": len(self._shards), "groups": self._groups_total},
        )
        self._event("campaign_started", shards=len(self._shards),
                    groups=self._groups_total, workers=self._workers)
        self._maybe_progress(force=True)

    @_locked
    def shard_resumed(self, shard_index: int, result: dict) -> None:
        shard = self._shard(shard_index)
        shard.state = "resumed"
        shard.duration = 0.0
        self._land_result(result)
        self._event("shard_resumed", shard=shard_index)
        self._maybe_progress()

    @_locked
    def shard_started(
        self, shard_index: int, attempt: int, speculative: bool = False
    ) -> None:
        shard = self._shard(shard_index)
        shard.state = "running"
        shard.attempts = max(shard.attempts, attempt)
        if speculative:
            shard.speculated += 1
            self._counts["speculated"] += 1
        now = self._clock()
        if shard.started is None or not speculative:
            shard.started = now
        shard.last_beat = now
        self._counts["attempts"] += 1
        if attempt > 1 and not speculative:
            self._counts["retries"] += 1
        self.spans.begin(
            f"shard {shard_index} attempt {attempt}"
            + (" (speculative)" if speculative else ""),
            "shard", shard_index, "attempt", attempt,
            *(("spec",) if speculative else ()),
            category="attempt", tid=shard_index + 1,
            args={"attempt": attempt, "speculative": speculative},
        )
        self._event("attempt_started", shard=shard_index, attempt=attempt,
                    speculative=speculative)
        self._maybe_progress()

    @_locked
    def shard_heartbeat(
        self, shard_index: int, attempt: int, payload: Optional[dict]
    ) -> None:
        shard = self._shard(shard_index)
        shard.last_beat = self._clock()
        if not payload:
            return
        done = int(payload.get("done") or 0)
        total = int(payload.get("total") or 0)
        if total:
            shard.total = total
        shard.done = max(shard.done, done)
        rss = payload.get("rss_kb")
        if rss is not None:
            shard.peak_rss_kb = max(shard.peak_rss_kb or 0, int(rss))
        self._event(
            "heartbeat", shard=shard_index, attempt=attempt,
            done=done, total=total, rss_kb=rss,
            progress=round(self.progress(), 6),
            live=round(self.live_progress(), 6),
        )
        self._maybe_progress()

    @_locked
    def shard_attempt_failed(
        self,
        shard_index: int,
        attempt: int,
        kind: str,
        error: str,
        duration: float,
    ) -> None:
        shard = self._shard(shard_index)
        shard.error = error
        if kind in _FAILURE_COUNTERS:
            self._counts[_FAILURE_COUNTERS[kind]] += 1
        self._busy_seconds += max(0.0, duration)
        self.spans.end(
            "shard", shard_index, "attempt", attempt,
            args={"outcome": kind, "error": error},
        )
        self.spans.instant(
            f"shard {shard_index} {kind}",
            category="failure", tid=shard_index + 1,
            args={"attempt": attempt, "error": error},
        )
        self._event("attempt_failed", shard=shard_index, attempt=attempt,
                    kind=kind, error=error, duration_s=round(duration, 6))
        self._maybe_progress()

    @_locked
    def shard_completed(
        self,
        shard_index: int,
        result: dict,
        attempt: int = 1,
        duration: Optional[float] = None,
    ) -> None:
        shard = self._shard(shard_index)
        now = self._clock()
        if duration is None:
            duration = (now - shard.started) if shard.started is not None else 0.0
        shard.state = "done"
        shard.duration = duration
        shard.done = shard.total or shard.done
        shard.error = None
        self._durations.append(duration)
        self._busy_seconds += max(0.0, duration)
        self._land_result(result)
        self.spans.end(
            "shard", shard_index, "attempt", attempt,
            args={"outcome": "ok", "groups": result.get("group_count")},
        )
        self._phase_spans(shard_index, attempt, result, now)
        self._event(
            "shard_completed", shard=shard_index, attempt=attempt,
            duration_s=round(duration, 6),
            groups=result.get("group_count"),
            progress=round(self.progress(), 6),
        )
        self._maybe_progress()

    @_locked
    def shard_failed(self, shard_index: int, error: str) -> None:
        shard = self._shard(shard_index)
        shard.state = "failed"
        shard.error = error
        self._event("shard_failed", shard=shard_index, error=error)
        self._maybe_progress()

    @_locked
    def campaign_finished(self, result) -> None:
        """Final fold: close the campaign span, write every surface.

        ``result`` is a :class:`~repro.fleet.campaign.CampaignResult`
        (duck-typed — the monitor reads plain attributes only).
        """
        self._state = "degraded" if result.shards_failed else "done"
        supervision = dict(result.supervision or {})
        for key, value in supervision.items():
            if key in self._counts:
                self._counts[key] = max(self._counts[key], int(value))
        self._final = {
            "completeness": result.completeness,
            "shards_total": result.shards_total,
            "shards_completed": result.shards_completed,
            "shards_resumed": result.shards_resumed,
            "shards_failed": result.shards_failed,
            "failed_shards": list(result.failed_shards),
            "supervision": supervision,
            "policies": [
                {
                    "name": p.name,
                    "groups": p.groups,
                    "losses": p.losses,
                    "losses_by_mode": dict(p.losses_by_mode),
                    "drive_years": p.drive_years,
                    "mttdl_years": _json_num(p.mttdl_years),
                    "mttdl_ci_years": [
                        _json_num(p.mttdl_ci_hours[0] / HOURS_PER_YEAR),
                        _json_num(p.mttdl_ci_hours[1] / HOURS_PER_YEAR),
                    ],
                    "p_loss_mission": p.p_loss_mission,
                    "p_loss_ci": list(p.p_loss_ci),
                    "closed_form_p_loss": p.closed_form_p_loss,
                    "latent_window_hours": p.latent_window_hours,
                }
                for p in result.policies
            ],
        }
        self._merged = result.telemetry
        self._landed = []
        self.spans.end("campaign", args={"state": self._state})
        self._event("campaign_finished", state=self._state,
                    progress=round(self.progress(), 6))
        self._write_json(self.status_path, self._status())
        self._maybe_progress(force=True)
        self._write_summary()
        self.write_trace()
        if self._events_handle is not None:
            try:
                self._events_handle.close()
            except OSError:
                pass
            self._events_handle = None

    # -- derived views -------------------------------------------------

    def progress(self) -> float:
        """Durable progress: fraction of groups landed (in [0, 1]).

        Counts only shards that are checkpoint-durable (``done`` or
        ``resumed``), which makes this number **monotone across kill +
        resume**: in-flight partial work is excluded precisely because
        a SIGKILL loses it.  The smoke test asserts this monotonicity;
        use :meth:`live_progress` for the streaming estimate.
        """
        if not self._groups_total:
            return 0.0
        return min(1.0, self._groups_done() / self._groups_total)

    def _groups_done(self) -> int:
        return sum(
            shard.group_count
            for shard in self._shards.values()
            if shard.state in ("done", "resumed")
        )

    def live_progress(self) -> float:
        """Progress including in-flight shards' heartbeat fractions."""
        if not self._groups_total:
            return 0.0
        done = sum(
            shard.group_count * shard.fraction()
            for shard in self._shards.values()
        )
        return min(1.0, done / self._groups_total)

    def elapsed(self) -> float:
        return 0.0 if self._started is None else self._clock() - self._started

    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        elapsed = self.elapsed()
        if elapsed <= 0:
            return 0.0
        busy = self._busy_seconds
        now = self._clock()
        for shard in self._shards.values():
            if shard.state == "running" and shard.started is not None:
                busy += now - shard.started
        return min(1.0, busy / (elapsed * self._workers))

    def stragglers(self) -> List[dict]:
        """Running shards whose age exceeds the median done duration."""
        if not self._durations:
            return []
        median = sorted(self._durations)[len(self._durations) // 2]
        now = self._clock()
        lagging = []
        for shard in self._shards.values():
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

    def status(self) -> dict:
        """The full machine-readable status payload."""
        with self._lock:
            return self._status()

    def _status(self) -> dict:
        elapsed = self.elapsed()
        drive_years = self._drive_hours / HOURS_PER_YEAR
        states = Counter(shard.state for shard in self._shards.values())
        counters = dict(self.merged_snapshot().get("counters", {}))
        now = self._clock()
        per_shard = []
        for index in sorted(self._shards):
            shard = self._shards[index]
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
            "campaign": self._digest,
            "state": self._state,
            "updated_unix": self._wall(),
            "elapsed_s": round(elapsed, 3),
            "progress": round(self.progress(), 6),
            "progress_live": round(self.live_progress(), 6),
            "shards": {
                "total": len(self._shards),
                "done": states["done"] + states["resumed"],
                "failed": states["failed"],
                "resumed": states["resumed"],
                "running": states["running"],
            },
            "groups": {"total": self._groups_total, "done": self._groups_done()},
            "throughput": {
                "drive_years": round(drive_years, 3),
                "drive_years_per_s": (
                    round(drive_years / elapsed, 3) if elapsed > 0 else 0.0
                ),
            },
            "workers": {
                "configured": self._workers,
                "busy": states["running"],
                "utilization": round(self.utilization(), 4),
            },
            "supervision": dict(self._counts),
            "counters": counters,
            "stragglers": self.stragglers(),
            "per_shard": per_shard,
        }
        if self._final is not None:
            payload["final"] = self._final
        return payload

    def merged_snapshot(self) -> dict:
        """The live merged telemetry snapshot (landed shards so far)."""
        if self._landed:
            self._merged = merge_snapshots([self._merged, *self._landed])
            self._landed = []
        return self._merged if self._merged is not None else {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def progress_line(self) -> str:
        """One human progress line for streaming output."""
        status = self._status()
        shards = status["shards"]
        parts = [
            f"[{status['elapsed_s']:8.1f}s]",
            f"{status['progress_live'] * 100:5.1f}%",
            f"shards {shards['done']}/{shards['total']}",
            f"({shards['running']} running)",
            f"util {status['workers']['utilization'] * 100:.0f}%",
        ]
        rate = status["throughput"]["drive_years_per_s"]
        if rate:
            parts.append(f"{rate:,.0f} dy/s")
        retries = status["supervision"]["retries"]
        if retries:
            parts.append(f"{retries} retries")
        if status["stragglers"]:
            parts.append(f"{len(status['stragglers'])} straggling")
        if shards["failed"]:
            parts.append(f"{shards['failed']} FAILED")
        return "  ".join(parts)

    # -- output plumbing ----------------------------------------------

    def write_trace(self, path: Optional[str] = None) -> Optional[str]:
        """Write the span flame view as a Perfetto-loadable trace."""
        target = path or self.trace_path
        try:
            write_chrome_trace(target, self.spans.chrome_events())
        except OSError:
            self.io_errors += 1
            return None
        return target

    def _shard(self, index: int) -> _Shard:
        shard = self._shards.get(index)
        if shard is None:
            shard = self._shards[index] = _Shard(index, 0)
        return shard

    def _land_result(self, result: dict) -> None:
        snapshot = (result.get("telemetry") or {}).get("metrics")
        if snapshot:
            self._landed.append(snapshot)
        for block in result.get("policies", []):
            self._drive_hours += block.get("drive_hours", 0.0)

    def _phase_spans(
        self, shard_index: int, attempt: int, result: dict, end: float
    ) -> None:
        """Nest worker-reported kernel phases under the attempt span."""
        phases = result.get("phases") or []
        total = sum(p.get("wall_s", 0.0) for p in phases)
        start = end - total
        for phase in phases:
            wall = phase.get("wall_s", 0.0)
            name = phase.get("policy") or phase.get("name") or "phase"
            self.spans.add_timed(
                f"policy {name}", start, wall,
                "shard", shard_index, "attempt", attempt, "phase", name,
                category="phase", tid=shard_index + 1,
                args={"wall_s": wall},
            )
            start += wall

    def _event(self, event: str, **fields) -> None:
        record = {"t": round(self._wall(), 6), "event": event}
        record.update(fields)
        # One handle for every event, each line flushed: the log is
        # complete up to the last event even through a SIGKILL.
        try:
            if self._events_handle is None:
                self._events_handle = open(
                    self.events_path, "a", encoding="utf-8"
                )
            self._events_handle.write(json.dumps(record) + "\n")
            self._events_handle.flush()
        except (OSError, ValueError):
            self.io_errors += 1
            self._events_handle = None

    def _maybe_progress(self, force: bool = False) -> None:
        """Hand ``on_progress`` a line, ``interval`` apart unless forced."""
        if self.on_progress is None:
            return
        now = self._clock()
        if not force and now - self._last_line < self.interval:
            return
        self._last_line = now
        try:
            self.on_progress(self.progress_line())
        except Exception:
            pass

    def _write_json(self, path: str, payload: dict) -> None:
        """Replace ``path`` atomically; an unwritable directory degrades
        monitoring (``io_errors``), never the campaign."""
        text = json.dumps(payload, indent=2, sort_keys=True)
        try:
            with atomic_write(path) as handle:
                handle.write(text)
        except OSError:
            self.io_errors += 1

    def _write_summary(self) -> None:
        payload = {
            "version": STATUS_VERSION,
            "campaign": self._digest,
            "state": self._state,
            "generated_unix": self._wall(),
            "elapsed_s": round(self.elapsed(), 3),
            "mission_years": self._mission_years,
            "workers": self._workers,
            "utilization": round(self.utilization(), 4),
            "supervision": dict(self._counts),
            "shard_durations_s": [round(d, 6) for d in self._durations],
            "drive_years": round(self._drive_hours / HOURS_PER_YEAR, 3),
            "final": self._final,
            "telemetry": self.merged_snapshot(),
            "phases": self._phase_summary(),
        }
        self._write_json(self.summary_path, payload)

    def _phase_summary(self) -> List[dict]:
        """Aggregate kernel-phase wall time across shards, by phase."""
        totals: Dict[str, List[float]] = {}
        for span in self.spans.spans():
            if span.category == "phase":
                totals.setdefault(span.name, []).append(span.duration)
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


def read_events_chunk(path: str, offset: int = 0) -> "tuple[bytes, int]":
    """Read new raw bytes of an ``events.jsonl`` from ``offset``.

    Returns ``(chunk, new_offset)``; a missing file (no event yet) is an
    empty chunk.  The service's ``GET /campaigns/{id}/events`` relays
    the bytes verbatim, so the streamed NDJSON is *byte-identical* to
    the on-disk log and a disconnected client resumes from its offset.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return b"", offset
    return chunk, offset + len(chunk)


def _json_num(value: float):
    """JSON-safe number: infinities become None (null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
