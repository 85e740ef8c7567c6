"""Runtime invariant checking: conservation laws validated live.

:class:`InvariantSink` is a :class:`~repro.obs.sink.TelemetrySink`
that *validates* instead of recording: attached to a simulation it
watches the same blktrace-style hook stream the
:class:`~repro.obs.sink.Recorder` consumes and raises a
structured :class:`InvariantViolation` the moment an event breaks one
of the stack's conservation laws:

* **clock monotonicity** — no hook may report a time earlier than the
  previous hook (the engine pops events in time order, so a backwards
  timestamp means a component cached a stale ``now``);
* **request lifecycle** — every request is queued, dispatched and
  completed *exactly once*, in that order, tracked by its submission
  sequence number;
* **queue accounting** (Little's-law bookkeeping) — at all times
  ``queued >= dispatched >= completed`` and at most one request is on
  the (single-server) drive; at the end of a run everything dispatched
  must have completed;
* **LBN bounds** — no command may touch sectors outside
  ``[0, total_sectors)``;
* **scrub-pass coverage** — when a scrub pass completes, the union of
  the ``VERIFY`` extents issued during that pass must cover the whole
  disk, for sequential and staggered orders alike;
* **fault lifecycle** — detection implies a prior onset, no sector is
  reallocated twice, the spare pool never over-drains, and a
  ``verify_after_remap`` implies a prior remap;
* **replay schedule** — once told the replayed trace
  (:meth:`InvariantSink.expect_replay`), foreground request *i* is
  trace record *i* (LBN wrapped, sectors clipped, read or write)
  submitted at exactly the time the replay cursor promises, and no
  record due before the run ended goes unsubmitted.

Violations carry the offending event plus a window of the events that
led up to it, so a failure inside a million-event run pinpoints its
context without a debugger.  The sink only observes — attaching it
never changes what a simulation does — and when it is *not* attached
the engine runs the untouched fast loop, so the checker costs nothing
unless asked for.  Attached, it hears the kernel once per
``Simulation.run`` call, never per event
(``tests/test_sim_one_loop.py``); what it costs on a stack whose hooks
fire per request is not budgeted.

Post-run checks that need whole-run state (:func:`check_error_log`,
:func:`check_media_faults`) live here too; :meth:`InvariantSink.finish`
runs them when given the run's fault state.
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


def _merge_extents(extents: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge ``(lbn, sectors)`` extents into sorted disjoint intervals."""
    if not extents:
        return []
    intervals = sorted((lbn, lbn + sectors) for lbn, sectors in extents)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class InvariantSink(TelemetrySink):
    """Validating telemetry sink: conservation laws checked per event.

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
        #: Lifecycle state by request sequence number.
        self._queued: Set[int] = set()
        self._dispatched: Set[int] = set()
        self._done: Set[int] = set()
        self.queued_total = 0
        self.dispatched_total = 0
        self.completed_total = 0
        #: VERIFY extents per scrub source since its last pass start.
        self._pass_extents: Dict[str, List[Tuple[int, int]]] = {}
        self._pass_open: Dict[str, int] = {}
        #: Fault lifecycle bookkeeping from ``fault_event`` hooks.
        self._remapped_lbns: Set[int] = set()
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

    def _check_bounds(self, now: float, command: Any) -> None:
        if self.total_sectors is None:
            return
        lbn = command.lbn
        sectors = command.sectors
        if lbn < 0 or sectors <= 0 or lbn + sectors > self.total_sectors:
            self._fail(
                "lbn-bounds",
                f"{command.opcode.value} [{lbn}, {lbn + sectors}) outside "
                f"disk of {self.total_sectors} sectors",
                now,
            )

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
    def request_queued(self, now: float, request: Any) -> None:
        self._note(now, "request_queued", "{!r}", request)
        if self._replay is not None and request.source == "foreground":
            self._check_replayed(now, request)
        self._check_bounds(now, request.command)
        seq = request.seq
        if seq in self._queued or seq in self._dispatched or seq in self._done:
            self._fail(
                "request-lifecycle", f"request #{seq} queued twice: {request!r}", now
            )
        self._queued.add(seq)
        self.queued_total += 1
        if request.command.opcode.value == "verify" and request.source:
            self._pass_extents.setdefault(request.source, []).append(
                (request.command.lbn, request.command.sectors)
            )

    def request_dispatched(self, now: float, request: Any) -> None:
        self._note(now, "request_dispatched", "{!r}", request)
        seq = request.seq
        if seq not in self._queued:
            origin = "completed" if seq in self._done else (
                "already dispatched" if seq in self._dispatched else "never queued"
            )
            self._fail(
                "request-lifecycle",
                f"request #{seq} dispatched but {origin}: {request!r}",
                now,
            )
        if len(self._dispatched) >= 1:
            self._fail(
                "queue-accounting",
                f"second request on the single-server drive: {request!r} "
                f"joins #{sorted(self._dispatched)}",
                now,
            )
        self._queued.discard(seq)
        self._dispatched.add(seq)
        self.dispatched_total += 1

    def request_completed(self, now: float, request: Any) -> None:
        self._note(now, "request_completed", "{!r}", request)
        seq = request.seq
        if seq not in self._dispatched:
            origin = "completed twice" if seq in self._done else (
                "still queued" if seq in self._queued else "never dispatched"
            )
            self._fail(
                "request-lifecycle",
                f"request #{seq} completed but {origin}: {request!r}",
                now,
            )
        self._dispatched.discard(seq)
        self._done.add(seq)
        self.completed_total += 1
        if request.complete_time is not None and request.submit_time is not None:
            if request.complete_time < request.submit_time:
                self._fail(
                    "request-lifecycle",
                    f"request #{seq} completed before submission "
                    f"({request.complete_time} < {request.submit_time})",
                    now,
                )

    # -- scrubbing -----------------------------------------------------------
    def scrub_pass_started(self, now: float, source: str, index: int) -> None:
        self._note(now, "scrub_pass_started", "{} pass {}", source, index)
        self._pass_extents[source] = []
        self._pass_open[source] = index

    def scrub_pass_completed(
        self, now: float, source: str, index: int, bytes_scrubbed: int
    ) -> None:
        self._note(
            now, "scrub_pass_completed", "{} pass {} ({}B)", source, index,
            bytes_scrubbed,
        )
        open_index = self._pass_open.pop(source, None)
        if open_index is not None and open_index != index:
            self._fail(
                "scrub-coverage",
                f"{source} completed pass {index} but pass {open_index} was open",
                now,
            )
        extents = self._pass_extents.pop(source, [])
        if self.total_sectors is None:
            return
        merged = _merge_extents(extents)
        covered = sum(end - start for start, end in merged)
        if (
            len(merged) != 1
            or merged[0][0] != 0
            or merged[0][1] < self.total_sectors
        ):
            gaps = []
            cursor = 0
            for start, end in merged:
                if start > cursor:
                    gaps.append((cursor, start))
                cursor = max(cursor, end)
            if cursor < self.total_sectors:
                gaps.append((cursor, self.total_sectors))
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
        self._note(now, "fault_event", "{} lbn={} {}", kind, lbn, args)
        if self.total_sectors is not None and not 0 <= lbn < self.total_sectors:
            self._fail(
                "lbn-bounds",
                f"fault event {kind!r} for LBN {lbn} outside disk of "
                f"{self.total_sectors} sectors",
                now,
            )
        if kind == "remap":
            if lbn in self._remapped_lbns:
                self._fail(
                    "fault-lifecycle",
                    f"sector {lbn} reallocated twice",
                    now,
                )
            self._remapped_lbns.add(lbn)
        elif kind == "verify_after_remap" and lbn not in self._remapped_lbns:
            self._fail(
                "fault-lifecycle",
                f"verify_after_remap for LBN {lbn} with no prior remap",
                now,
            )

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

        Verifies that nothing is left on the drive, that total counts
        balance (``queued == dispatched + waiting``,
        ``dispatched == completed``), and — when given the run's
        :class:`~repro.faults.state.MediaFaults` — the whole error
        lifecycle (:func:`check_media_faults`).

        Requests still waiting in a scheduler queue at the horizon are
        legal (an open-loop replay can end mid-burst), and so is the
        single request the non-preemptive drive was servicing when the
        clock stopped — but never more than one, and the totals must
        balance: ``queued == completed + waiting + in-flight``.  Under
        :meth:`expect_replay`, the first unsubmitted record must not be
        due before the last time the sink heard: call ``finish`` at a
        replayer's ``stop()`` to check the replay up to the stop.
        """
        at = self.last_time if self.last_time > float("-inf") else None
        in_flight = len(self._dispatched)
        if in_flight > 1:
            self._fail(
                "queue-accounting",
                f"run ended with {in_flight} requests on the single-server "
                f"drive: #{sorted(self._dispatched)}",
                at,
            )
        waiting = len(self._queued)
        if self.queued_total != self.completed_total + waiting + in_flight:
            self._fail(
                "queue-accounting",
                f"queued {self.queued_total} != completed "
                f"{self.completed_total} + waiting {waiting} + in-flight "
                f"{in_flight}",
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


def check_error_log(log: Any) -> None:
    """Validate an :class:`~repro.faults.log.ErrorLog`'s lifecycle.

    Raises :class:`InvariantViolation` when: a detection precedes its
    sector's onset (or has none), a sector is reallocated twice, a
    successful post-remap verify has no preceding remap, or any record
    stream goes backwards in time.
    """
    from repro.faults.log import ErrorEventKind

    last = float("-inf")
    remapped: Set[int] = set()
    for record in log.records:
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
    if total_sectors is not None:
        for lbn in faults._active:
            if not 0 <= lbn < total_sectors:
                raise InvariantViolation(
                    "lbn-bounds",
                    f"active bad sector {lbn} outside disk of "
                    f"{total_sectors} sectors",
                )
    check_error_log(faults.log)
