"""Live campaign observation: one append-only event log.

:class:`CampaignMonitor` is the supervisor-side half of campaign
observability.  The :class:`~repro.fleet.campaign.CampaignRunner`
feeds it lifecycle events — shard attempts starting, heartbeat
progress samples shipped over the supervision pipes, shards landing
or failing — and the monitor turns each into one record of
``events.jsonl``: one unbuffered write per line, so the log is
complete up to the last event even through a SIGKILL, and it
*persists across resume*, so a campaign killed and resumed leaves one
continuous, monotone progress record.  It writes no other file.

Each record also goes through the monitor's
:class:`~repro.obs.report.CampaignFold`, the fold every reader of the
log uses, so :meth:`CampaignMonitor.status` — what the service answers
while the campaign runs — is the status a reader folds from the log
cut at the same record.  The records carry what the fold needs: the
shards' group counts when the campaign starts, each landed shard's
groups, drive hours and kernel phases, and the final result block with
the merged telemetry when it finishes.  Progress lines go through an
optional callback (the CLI's ``--monitor`` stream).

One lock orders the lifecycle methods and
:meth:`~CampaignMonitor.status`, so a reader on another thread never
sees a half-folded record.

**Passivity is the contract.**  The monitor only *observes*: it never
touches a result dict, and every filesystem write, the directory's
creation included, is guarded so an unwritable output directory
degrades monitoring (``io_errors``), never the campaign.  Simulation
results are bit-identical with a monitor attached or not.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from typing import Callable, Optional

from repro.obs.report import STATUS_VERSION, CampaignFold
from repro.raid.reliability import HOURS_PER_YEAR

__all__ = ["CampaignMonitor", "STATUS_VERSION", "read_events_chunk"]


def _locked(method):
    """Run ``method`` under its monitor's lock."""
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return locked


class CampaignMonitor:
    """Append a campaign's lifecycle to ``events.jsonl`` and fold it.

    Parameters
    ----------
    out_dir:
        Directory for ``events.jsonl``; created with the first event.
    interval:
        Minimum seconds between progress lines (events always log;
        pass ``0`` for a line on every event).
    on_progress:
        Optional ``(line: str) -> None`` callback for rendered
        progress lines; it runs under the monitor's lock.
    clock / wall_clock:
        Injectable monotonic and wall clocks, for tests; each record
        carries both (``mono`` and ``t``).
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
        self.events_path = os.path.join(out_dir, "events.jsonl")
        self.interval = float(interval)
        self.on_progress = on_progress
        self._clock = clock
        self._wall = wall_clock
        self._last_line = -float("inf")
        self._lock = threading.Lock()
        self.fold = CampaignFold()
        self.io_errors = 0
        self._events_handle = None

    # -- campaign lifecycle (called by CampaignRunner) ----------------

    @_locked
    def campaign_started(
        self, digest: str, shard_ranges, workers: int, mission_years: float
    ) -> None:
        groups = [count for _, count in shard_ranges]
        self._event("campaign_started", shards=len(groups), groups=sum(groups),
                    workers=max(1, int(workers)), campaign=digest,
                    mission_years=float(mission_years), shard_groups=groups)
        self._maybe_progress(force=True)

    @_locked
    def shard_resumed(self, shard_index: int, result: dict) -> None:
        self._event("shard_resumed", shard=shard_index,
                    groups=result.get("group_count"),
                    drive_hours=_drive_hours(result))
        self._maybe_progress()

    @_locked
    def shard_started(
        self, shard_index: int, attempt: int, speculative: bool = False
    ) -> None:
        self._event("attempt_started", shard=shard_index, attempt=attempt,
                    speculative=speculative)
        self._maybe_progress()

    @_locked
    def shard_heartbeat(
        self, shard_index: int, attempt: int, payload: Optional[dict]
    ) -> None:
        if not payload:
            return
        self._event(
            "heartbeat", shard=shard_index, attempt=attempt,
            done=int(payload.get("done") or 0),
            total=int(payload.get("total") or 0),
            rss_kb=payload.get("rss_kb"), progress=None, live=None,
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
        if duration is None:
            shard = self.fold.shards.get(shard_index)
            started = None if shard is None else shard.started
            duration = 0.0 if started is None else self._clock() - started
        self._event(
            "shard_completed", shard=shard_index, attempt=attempt,
            duration_s=round(duration, 6),
            groups=result.get("group_count"),
            drive_hours=_drive_hours(result),
            phases=result.get("phases") or [],
            progress=None,
        )
        self._maybe_progress()

    @_locked
    def shard_failed(self, shard_index: int, error: str) -> None:
        self._event("shard_failed", shard=shard_index, error=error)
        self._maybe_progress()

    @_locked
    def campaign_finished(self, result) -> None:
        """The last record: the final result block and merged telemetry.

        ``result`` is a :class:`~repro.fleet.campaign.CampaignResult`
        (duck-typed — the monitor reads plain attributes only).
        """
        self._event(
            "campaign_finished",
            state="degraded" if result.shards_failed else "done",
            progress=None, final=_final_block(result),
            telemetry=result.telemetry,
        )
        self._maybe_progress(force=True)
        self._close_events()

    @_locked
    def close(self) -> None:
        """Close ``events.jsonl``; an event after this reopens it.

        :class:`~repro.fleet.campaign.CampaignRunner` calls this however
        its run ends, so a campaign that raises or is cancelled before
        :meth:`campaign_finished` leaves no handle open.
        """
        self._close_events()

    # -- derived views -------------------------------------------------

    def status(self) -> dict:
        """The fold's status as of now."""
        with self._lock:
            return self.fold.status(self._clock(), self._wall())

    def progress_line(self) -> str:
        """One human progress line for streaming output."""
        status = self.fold.status(self._clock(), self._wall())
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

    def _event(self, event: str, **fields) -> None:
        """Fold one record, then append it.

        A ``progress`` / ``live`` field passed as ``None`` is filled in
        with the fold's durable / live progress after the record.
        """
        record = {
            "t": round(self._wall(), 6), "mono": round(self._clock(), 6),
            "event": event,
        }
        record.update(fields)
        fold = self.fold
        fold.add(record)
        if "progress" in record:
            record["progress"] = round(fold.progress(), 6)
        if "live" in record:
            record["live"] = round(fold.live_progress(), 6)
        # One unbuffered handle for every event, one write a line.
        try:
            line = (json.dumps(record) + "\n").encode("utf-8")
            if self._events_handle is None:
                os.makedirs(self.out_dir, exist_ok=True)
                self._events_handle = open(self.events_path, "ab", buffering=0)
            self._events_handle.write(line)
        except (OSError, ValueError):
            self.io_errors += 1
            self._close_events()

    def _close_events(self) -> None:
        handle, self._events_handle = self._events_handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

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


def _drive_hours(result: dict) -> float:
    return sum(block.get("drive_hours", 0.0) for block in result.get("policies", []))


def _final_block(result) -> dict:
    """What the status and summary keep of a finished campaign."""
    return {
        "completeness": result.completeness,
        "shards_total": result.shards_total,
        "shards_completed": result.shards_completed,
        "shards_resumed": result.shards_resumed,
        "shards_failed": result.shards_failed,
        "failed_shards": list(result.failed_shards),
        "supervision": dict(result.supervision or {}),
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
