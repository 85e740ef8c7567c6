"""Runtime invariant checking: conservation laws validated online and
over the device's request log.

:class:`InvariantSink` is a :class:`~repro.obs.sink.TelemetrySink`
that *validates* instead of recording.  It hears the blktrace-style
hooks the :class:`~repro.obs.sink.Recorder` hears, is handed the
device's :class:`~repro.sched.device.RequestLog` when the device is
built (it refuses a capped one: a checked run keeps its whole log), and
raises a structured :class:`InvariantViolation` when the run breaks a
law.  It keeps no per-request history: what only the moment shows is
checked online, the rest is read off the log, a pass's own slice when
the pass ends and the whole log in :meth:`InvariantSink.finish`:

* **clock monotonicity** (online) — no hook reports a time earlier
  than the previous hook (a component cached a stale ``now``);
* **request lifecycle** — online, a request is queued once, dispatched
  only from the queue and completed only off the drive; at ``finish``,
  each logged request appears once, ``submit <= dispatch <= complete``,
  and none is still queued;
* **queue accounting** — online, at most one request is on the
  single-server drive; at ``finish``, ``queued == completed + waiting
  + in-flight`` and the log holds exactly the completions heard;
* **LBN bounds** (online) — no request is queued outside
  ``[0, total_sectors)``: the drive refuses one before a log holds it;
* **scrub-pass coverage** (pass end) — the ``VERIFY`` extents a source
  completed since its pass started cover the whole disk; online, every
  progress fraction lies in ``[0, 1]``;
* **fault lifecycle** (``finish``) — the run's error log, by
  :func:`check_media_faults`;
* **replay schedule** — under :meth:`InvariantSink.expect_replay`,
  foreground request *i* is trace record *i*, submitted when the replay
  cursor promises (online: a request waiting at the horizon is never
  logged); at ``finish``, no record due before the run ended is
  unsubmitted.

Violations carry the offending event plus a window of the events that
led up to it.  The sink only observes, and unattached it costs nothing;
attached, it hears the kernel once per ``Simulation.run`` call
(``tests/test_sim_one_loop.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.obs.sink import TelemetrySink

__all__ = [
    "InvariantSink",
    "InvariantViolation",
    "check_error_log",
    "check_media_faults",
]

#: Events of context retained for violation reports.
_WINDOW = 32


class InvariantViolation(AssertionError):
    """A simulation broke a conservation law.

    Parameters
    ----------
    invariant:
        Short machine-readable name (``"request-lifecycle"``,
        ``"scrub-coverage"``, ...).
    message:
        Human-readable description of what was violated and by what.
    time:
        Simulation time of the offending event, when known.
    window:
        The most recent hook events (``(time, hook, detail)`` tuples)
        leading up to the violation, oldest first.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        time: Optional[float] = None,
        window: Optional[List[Tuple]] = None,
    ) -> None:
        self.invariant = invariant
        self.message = message
        self.time = time
        self.window = list(window or [])
        super().__init__(self.report())

    def report(self) -> str:
        """The violation plus its event window, ready to print."""
        at = f" at t={self.time:.6f}" if self.time is not None else ""
        lines = [f"invariant {self.invariant!r} violated{at}: {self.message}"]
        if self.window:
            lines.append(
                f"  last {len(self.window)} events leading up to the violation:"
            )
            for when, hook, detail in self.window:
                lines.append(f"    t={when:<12.6f} {hook:<20} {detail}")
        return "\n".join(lines)


def _gaps(extents: List[Tuple[int, int]], total: int) -> List[Tuple[int, int]]:
    """The ``(start, end)`` stretches of ``[0, total)`` that no
    ``(lbn, sectors)`` extent covers, in order."""
    gaps = []
    cursor = 0
    for lbn, sectors in sorted(extents):
        if lbn > cursor:
            gaps.append((cursor, lbn))
        cursor = max(cursor, lbn + sectors)
    if cursor < total:
        gaps.append((cursor, total))
    return gaps


class InvariantSink(TelemetrySink):
    """Validating telemetry sink: conservation laws checked online and
    over the device's request log.

    Parameters
    ----------
    total_sectors:
        Disk size for LBN-bound and scrub-coverage checks (every
        completed scrub pass must cover the whole disk); ``None`` skips
        both (the other invariants still run).
    """

    def __init__(self, total_sectors: Optional[int] = None) -> None:
        self.total_sectors = total_sectors
        #: ``(trace, time_scale, start)`` once :meth:`expect_replay`
        #: is called; the next record's index and the last submit time.
        self._replay: Optional[Tuple[Any, float, float]] = None
        self._replayed = 0
        self._replayed_at = 0.0
        self.last_time = float("-inf")
        self.events_seen = 0
        #: The device's :class:`~repro.sched.device.RequestLog`.
        self.log = None
        #: Sequence numbers waiting in the scheduler queue, and that of
        #: the one request on the drive.
        self._queued: Set[int] = set()
        self._on_drive: Optional[int] = None
        self.queued_total = 0
        self.completed_total = 0
        self.fault_events = 0
        #: ``(pass index, log length at its start)`` by scrub source.
        self._pass_open: Dict[str, Tuple[int, int]] = {}
        self._window: Deque[Tuple] = deque(maxlen=_WINDOW)

    # -- helpers -------------------------------------------------------------
    def _note(self, now: float, hook: str, template: str, *args: Any) -> None:
        """Count one hook event and keep it in the window, its detail
        unformatted: ``template.format(*args)`` runs only in :meth:`_fail`."""
        self._window.append((now, hook, template, args))
        self.events_seen += 1
        if now < self.last_time - 1e-12:
            self._fail(
                "clock-monotonicity",
                f"{hook} reported t={now!r} after t={self.last_time!r}",
                now,
            )
        self.last_time = max(self.last_time, now)

    def _fail(self, invariant: str, message: str, now: Optional[float]) -> None:
        window = [
            (when, hook, template.format(*args))
            for when, hook, template, args in self._window
        ]
        raise InvariantViolation(invariant, message, time=now, window=window)

    def _records(self) -> list:
        """The attached log's requests, oldest first: the log's own list,
        so a caller slices what it reads and copies nothing else."""
        if self.log is None:
            if self.completed_total:
                raise RuntimeError(
                    f"this InvariantSink heard {self.completed_total} "
                    "completions but was given no request log (attach_log)"
                )
            return []
        return self.log._records

    # -- replay schedule -----------------------------------------------------
    def expect_replay(self, trace: Any, time_scale: float, start: float) -> None:
        """Hold every ``"foreground"`` request to the replay of ``trace``
        started at ``start`` with ``time_scale``.

        Record *i* is due at ``due_i = (t_i - t_0) * time_scale + start``
        and must be submitted at ``s_i``, with ``s_{-1} = start``,
        ``s_i = s_{i-1}`` if ``due_i <= s_{i-1}`` and
        ``s_{i-1} + (due_i - s_{i-1})`` otherwise: a late record goes at
        once, an early one waits ``due_i - now``.  Times compare with
        ``==``.  ``start`` is the replay's start time, passed in and not
        read off the first submit: a uniform shift of every submit is
        consistent with itself.
        """
        if self.total_sectors is None:
            raise ValueError("expect_replay needs total_sectors to wrap LBNs")
        self._replay = (trace, time_scale, start)
        self._replayed = 0
        self._replayed_at = start

    def _record(self, index: int) -> Tuple[float, str, int, int]:
        """``(submit time, opcode, lbn, sectors)`` replay record
        ``index`` must arrive as, if it is the next one."""
        trace, time_scale, start = self._replay
        origin = float(trace.times[0])
        due = (float(trace.times[index]) - origin) * time_scale + start
        at = self._replayed_at
        if due > at:
            at = at + (due - at)
        sectors = max(1, int(trace.sectors[index]))
        lbn = int(trace.lbns[index])
        if lbn + sectors > self.total_sectors:
            lbn = lbn % max(1, self.total_sectors - sectors)
        opcode = "write" if trace.is_write[index] else "read"
        return at, opcode, lbn, sectors

    def _check_replayed(self, now: float, request: Any) -> None:
        index = self._replayed
        if index >= len(self._replay[0]):
            self._fail(
                "replay-schedule",
                f"foreground submit {index} past the trace's last record "
                f"{index - 1}: {request!r}",
                now,
            )
        command = request.command
        got = (
            request.submit_time, command.opcode.value, command.lbn,
            command.sectors,
        )
        expected = self._record(index)
        if got != expected:
            self._fail(
                "replay-schedule",
                f"foreground submit {index} is not trace record {index}: "
                f"got {_replayed(got)}, expected {_replayed(expected)}",
                now,
            )
        self._replayed = index + 1
        self._replayed_at = expected[0]

    # -- request lifecycle ---------------------------------------------------
    def attach_log(self, log: Any) -> None:
        if self.log is not None and self.log is not log:
            raise ValueError("an InvariantSink checks one device's request log")
        if log.max_records is not None:
            raise ValueError(
                "a checked run keeps its whole request log: the log is "
                f"capped at max_records={log.max_records}"
            )
        self.log = log

    def request_queued(self, now: float, request: Any) -> None:
        self._note(now, "request_queued", "{!r}", request)
        if self._replay is not None and request.source == "foreground":
            self._check_replayed(now, request)
        command = request.command
        if self.total_sectors is not None:
            lbn = command.lbn
            sectors = command.sectors
            if lbn < 0 or sectors <= 0 or lbn + sectors > self.total_sectors:
                self._fail(
                    "lbn-bounds",
                    f"{command.opcode.value} [{lbn}, {lbn + sectors}) outside "
                    f"disk of {self.total_sectors} sectors",
                    now,
                )
        seq = request.seq
        if seq in self._queued or seq == self._on_drive:
            self._fail(
                "request-lifecycle", f"request #{seq} queued twice: {request!r}", now
            )
        self._queued.add(seq)
        self.queued_total += 1

    def request_dispatched(self, now: float, request: Any) -> None:
        self._note(now, "request_dispatched", "{!r}", request)
        seq = request.seq
        if seq not in self._queued:
            self._fail(
                "request-lifecycle",
                f"request #{seq} dispatched but not queued: {request!r}",
                now,
            )
        if self._on_drive is not None:
            self._fail(
                "queue-accounting",
                f"second request on the single-server drive: {request!r} "
                f"joins #[{self._on_drive}]",
                now,
            )
        self._queued.discard(seq)
        self._on_drive = seq

    def request_completed(self, now: float, request: Any) -> None:
        self._note(now, "request_completed", "{!r}", request)
        seq = request.seq
        if seq != self._on_drive:
            origin = "still queued" if seq in self._queued else "not on the drive"
            self._fail(
                "request-lifecycle",
                f"request #{seq} completed but {origin}: {request!r}",
                now,
            )
        self._on_drive = None
        self.completed_total += 1

    # -- scrubbing -----------------------------------------------------------
    def scrub_pass_started(self, now: float, source: str, index: int) -> None:
        self._note(now, "scrub_pass_started", "{} pass {}", source, index)
        self._pass_open[source] = (index, len(self._records()))

    def scrub_pass_completed(
        self, now: float, source: str, index: int, bytes_scrubbed: int
    ) -> None:
        self._note(
            now, "scrub_pass_completed", "{} pass {} ({}B)", source, index,
            bytes_scrubbed,
        )
        records = self._records()
        open_index, begin = self._pass_open.pop(source, (None, len(records)))
        if open_index is not None and open_index != index:
            self._fail(
                "scrub-coverage",
                f"{source} completed pass {index} but pass {open_index} was open",
                now,
            )
        if self.total_sectors is None:
            return
        # The pass's own slice of the log: every VERIFY it issued has
        # completed, and nothing before its start is read.
        gaps = _gaps([
            (request.command.lbn, request.command.sectors)
            for request in records[begin:]
            if request.source == source
            and request.command.opcode.value == "verify"
        ], self.total_sectors)
        if gaps:
            covered = self.total_sectors - sum(end - start for start, end in gaps)
            self._fail(
                "scrub-coverage",
                f"{source} pass {index} covered {covered} of "
                f"{self.total_sectors} sectors; gaps: {gaps[:4]}"
                + ("..." if len(gaps) > 4 else ""),
                now,
            )

    def scrub_progress(self, now: float, source: str, fraction: float) -> None:
        self._note(now, "scrub_progress", "{} {:.4f}", source, fraction)
        if not -1e-9 <= fraction <= 1.0 + 1e-9:
            self._fail(
                "scrub-coverage",
                f"{source} progress fraction {fraction} outside [0, 1]",
                now,
            )

    # -- faults --------------------------------------------------------------
    def fault_event(self, now: float, kind: str, lbn: int, **args: Any) -> None:
        """Counted and kept for the window; :meth:`finish` checks the
        lifecycle off the run's error log (:func:`check_media_faults`)."""
        self._note(now, "fault_event", "{} lbn={} {}", kind, lbn, args)
        self.fault_events += 1

    # -- engine --------------------------------------------------------------
    def engine_run(
        self, events: int, sim_time: float, wall_seconds: Optional[float]
    ) -> None:
        self._note(sim_time, "engine_run", "{} events", events)
        if events < 0:
            self._fail("queue-accounting", f"negative event count {events}", sim_time)

    # -- post-run ------------------------------------------------------------
    def finish(self, faults: Any = None) -> None:
        """End-of-run accounting; call after the simulation drains.

        The totals must balance, ``queued == completed + waiting +
        in-flight``: requests still queued at the horizon are legal (an
        open-loop replay can end mid-burst), and so is the one on the
        drive when the clock stopped.  One pass over the request log
        then checks it holds exactly the completions heard, each
        sequence number once, none still queued, each submitted no later
        than dispatched and dispatched no later than completed.  Under
        :meth:`expect_replay`, no record may be due before the last time
        the sink heard and unsubmitted: call ``finish`` at a replayer's
        ``stop()`` to check the replay up to the stop.  Given the run's
        :class:`~repro.faults.state.MediaFaults` (which a sink that
        heard fault events must be), :func:`check_media_faults` runs.
        """
        if self.fault_events and faults is None:
            raise RuntimeError(
                f"this InvariantSink heard {self.fault_events} fault events "
                "but finish() was given no fault state"
            )
        at = self.last_time if self.last_time > float("-inf") else None
        in_flight = 0 if self._on_drive is None else 1
        queued = self._queued
        if self.queued_total != self.completed_total + len(queued) + in_flight:
            self._fail(
                "queue-accounting",
                f"queued {self.queued_total} != completed "
                f"{self.completed_total} + waiting {len(queued)} + in-flight "
                f"{in_flight}",
                at,
            )
        records = self._records()
        if len(records) != self.completed_total:
            self._fail(
                "queue-accounting",
                f"the request log holds {len(records)} requests but "
                f"{self.completed_total} completions were heard",
                at,
            )
        logged: Set[int] = set()
        for request in records:
            seq = request.seq
            if seq in logged:
                origin = "completed twice"
            elif seq in queued:
                origin = "still queued"
            elif not (
                request.submit_time <= request.dispatch_time
                <= request.complete_time
            ):
                origin = "out of order"
            else:
                logged.add(seq)
                continue
            self._fail(
                "request-lifecycle",
                f"request #{seq} logged but {origin}: {request!r} submitted "
                f"at {request.submit_time}, dispatched at "
                f"{request.dispatch_time}, completed at {request.complete_time}",
                at,
            )
        if self._replay is not None and self._replayed < len(self._replay[0]):
            due = self._record(self._replayed)[0]
            if due < self.last_time:
                self._fail(
                    "replay-schedule",
                    f"trace record {self._replayed} due at t={due!r} was "
                    f"never submitted (the run ended at t={self.last_time!r})",
                    due,
                )
        if faults is not None:
            check_media_faults(faults, total_sectors=self.total_sectors)


def _replayed(submit: Tuple[float, str, int, int]) -> str:
    at, opcode, lbn, sectors = submit
    return f"{opcode} [{lbn}, {lbn + sectors}) at t={at!r}"


def check_error_log(log: Any, total_sectors: Optional[int] = None) -> None:
    """Validate an :class:`~repro.faults.log.ErrorLog`'s lifecycle.

    Raises :class:`InvariantViolation` when: a record's LBN lies outside
    ``[0, total_sectors)`` (given the disk size), a detection precedes
    its sector's onset (or has none), a sector is reallocated twice, a
    successful post-remap verify has no preceding remap, or any record
    stream goes backwards in time.
    """
    from repro.faults.log import ErrorEventKind

    last = float("-inf")
    remapped: Set[int] = set()
    for record in log.records:
        if total_sectors is not None and not 0 <= record.lbn < total_sectors:
            raise InvariantViolation(
                "lbn-bounds",
                f"{record.kind.value} record for LBN {record.lbn} outside "
                f"disk of {total_sectors} sectors",
                time=record.time,
            )
        # INJECTED records are appended lazily (when the clock first
        # sweeps past the onset) carrying the *onset* time, so they are
        # legitimately backdated; every other kind records "now".
        if record.kind is not ErrorEventKind.INJECTED:
            if record.time < last - 1e-12:
                raise InvariantViolation(
                    "clock-monotonicity",
                    f"error log goes backwards at {record}",
                    time=record.time,
                )
            last = max(last, record.time)
        if record.kind is ErrorEventKind.MEDIA_ERROR:
            onset = log.onsets.get(record.lbn)
            if onset is None:
                raise InvariantViolation(
                    "fault-lifecycle",
                    f"MEDIA_ERROR for LBN {record.lbn} with no recorded onset",
                    time=record.time,
                )
            if record.time < onset - 1e-12:
                raise InvariantViolation(
                    "fault-lifecycle",
                    f"LBN {record.lbn} detected at {record.time} before its "
                    f"onset at {onset}",
                    time=record.time,
                )
        elif record.kind is ErrorEventKind.REALLOCATED:
            if record.lbn in remapped:
                raise InvariantViolation(
                    "fault-lifecycle",
                    f"sector {record.lbn} reallocated twice",
                    time=record.time,
                )
            remapped.add(record.lbn)
        elif record.kind is ErrorEventKind.VERIFY_AFTER_REMAP:
            if record.lbn not in remapped:
                raise InvariantViolation(
                    "fault-lifecycle",
                    f"verify_after_remap for LBN {record.lbn} with no prior "
                    f"reallocation",
                    time=record.time,
                )


def check_media_faults(faults: Any, total_sectors: Optional[int] = None) -> None:
    """Validate a run's final :class:`~repro.faults.state.MediaFaults`.

    Raises :class:`InvariantViolation` when the spare pool over-drained
    or counts don't balance (every activated error is either still
    active or remapped), then defers to :func:`check_error_log` for the
    per-record lifecycle.
    """
    if faults.spares_used < 0 or faults.spares_used > faults.spare_sectors:
        raise InvariantViolation(
            "fault-lifecycle",
            f"spare pool out of range: {faults.spares_used} used of "
            f"{faults.spare_sectors}",
        )
    if faults.remapped_count > faults.spares_used:
        raise InvariantViolation(
            "fault-lifecycle",
            f"{faults.remapped_count} sectors remapped but only "
            f"{faults.spares_used} spares consumed",
        )
    activated = len(faults._onset)
    accounted = faults.active_count + sum(
        1 for lbn in faults._onset if lbn in faults._remapped
    )
    if accounted != activated:
        raise InvariantViolation(
            "fault-lifecycle",
            f"{activated} activated errors but {accounted} accounted for "
            f"(active {faults.active_count} + remapped-after-onset)",
        )
    check_error_log(faults.log, total_sectors)
