"""Telemetry sinks: the hook protocol and the recorder.

Modelled on Linux blktrace's request lifecycle (queue -> dispatch ->
complete): every instrumented layer calls a small set of typed hooks on
a sink.  The engine carries the sink (``Simulation(telemetry=...)``)
and every component picks it up from there; ``None`` is the one way
to say "no sink", so recording off costs one ``is not None`` test on
cold paths and nothing at all in the kernel's hot loop.

* :class:`TelemetrySink` — the protocol; every hook is a no-op, so a
  sink overrides only the hooks it cares about
  (:class:`~repro.verify.invariants.InvariantSink` validates them).
* :class:`Recorder` — appends lifecycle events to in-memory lists and
  updates a :class:`~repro.obs.metrics.MetricsRegistry`.

Determinism contract: a sink only *observes*.  It must never touch a
random stream, schedule an event, or mutate simulation state — with
recording on or off, a simulation pops exactly the same events in
exactly the same order.  The one non-deterministic input, wall-clock
time, is dropped by default (``Recorder(wall_time=False)``) so recorded
metric snapshots stay bit-identical across runs and across serial vs
parallel execution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["Recorder", "TelemetrySink"]


class TelemetrySink:
    """The hook protocol.  Base implementation: everything is a no-op.

    Subclasses override the hooks they care about.  Components guard
    hook calls with ``if sink is not None``, so a no-op base method is
    a safety net, not a hot path.
    """

    # -- request lifecycle (blktrace Q/D/C) --------------------------------
    def request_queued(self, now: float, request: Any) -> None:
        """A request entered the scheduler queue."""

    def request_dispatched(self, now: float, request: Any) -> None:
        """The dispatcher handed a request to the drive."""

    def request_completed(self, now: float, request: Any) -> None:
        """A request completed; ``request`` carries its timestamps and
        the drive's :class:`~repro.disk.drive.ServiceBreakdown`."""

    # -- drive ---------------------------------------------------------------
    def drive_serviced(self, command: Any, breakdown: Any) -> None:
        """The drive serviced one command (seek/rotation/transfer split)."""

    # -- scrubbing ------------------------------------------------------------
    def scrub_pass_started(self, now: float, source: str, index: int) -> None:
        """A full-disk scrub pass began."""

    def scrub_pass_completed(
        self, now: float, source: str, index: int, bytes_scrubbed: int
    ) -> None:
        """A full-disk scrub pass finished."""

    def scrub_progress(self, now: float, source: str, fraction: float) -> None:
        """Within-pass progress sample (0..1), one per scrub extent."""

    # -- faults ------------------------------------------------------------
    def fault_event(
        self, now: float, kind: str, lbn: int, **args: Any
    ) -> None:
        """A fault detection/remediation lifecycle step."""

    # -- engine -------------------------------------------------------------
    def engine_run(
        self, events: int, sim_time: float, wall_seconds: Optional[float]
    ) -> None:
        """One :meth:`Simulation.run` finished: events popped, final
        clock, and (when measured) wall-clock duration."""


class Recorder(TelemetrySink):
    """In-memory sink: structured lifecycle events plus a metrics registry.

    Parameters
    ----------
    wall_time:
        Record wall-clock engine statistics (``engine.wall_seconds``,
        ``engine.events_per_wall_second``).  Off by default because
        wall time is the only non-deterministic value in the registry;
        leave it off when snapshots must be bit-identical across runs
        (the serial == parallel sweep guarantee).

    Every completed request and every scrub-progress sample is kept for
    trace export.
    """

    def __init__(self, wall_time: bool = False) -> None:
        self.metrics = MetricsRegistry()
        self.wall_time = wall_time
        #: (submit, dispatch, complete, opcode, lbn, sectors, priority,
        #:  source, seek, rotation, transfer, cache_hit, status)
        self.requests: List[Tuple] = []
        #: (ts, category, name, args-or-None) point events.
        self.instants: List[Tuple] = []
        #: (ts, source, fraction) scrub-progress counter samples.
        self.progress_samples: List[Tuple] = []

    # -- request lifecycle ---------------------------------------------------
    def request_queued(self, now: float, request: Any) -> None:
        self.metrics.counter("device.submitted").inc()

    def request_dispatched(self, now: float, request: Any) -> None:
        self.metrics.counter("device.dispatched").inc()

    def request_completed(self, now: float, request: Any) -> None:
        metrics = self.metrics
        metrics.counter("device.completed").inc()
        metrics.counter("device.bytes").inc(request.bytes)
        breakdown = request.breakdown
        if breakdown is not None and not breakdown.ok:
            metrics.counter("device.media_errors").inc()
        metrics.histogram("device.response_time_s").observe(
            request.response_time
        )
        metrics.histogram("device.wait_time_s").observe(request.wait_time)
        metrics.histogram("device.service_time_s").observe(
            request.service_time
        )
        command = request.command
        self.requests.append(
            (
                request.submit_time,
                request.dispatch_time,
                request.complete_time,
                command.opcode.value,
                command.lbn,
                command.sectors,
                request.priority.name,
                request.source,
                breakdown.seek if breakdown is not None else 0.0,
                breakdown.rotation if breakdown is not None else 0.0,
                breakdown.transfer if breakdown is not None else 0.0,
                breakdown.cache_hit if breakdown is not None else False,
                breakdown.status.name if breakdown is not None else "GOOD",
            )
        )

    # -- drive ---------------------------------------------------------------
    def drive_serviced(self, command: Any, breakdown: Any) -> None:
        metrics = self.metrics
        metrics.counter("drive.commands").inc()
        if breakdown.cache_hit:
            metrics.counter("drive.cache_hits").inc()
        else:
            metrics.histogram("drive.seek_s").observe(breakdown.seek)
            metrics.histogram("drive.rotation_s").observe(breakdown.rotation)
            metrics.histogram("drive.transfer_s").observe(breakdown.transfer)
        if not breakdown.ok:
            metrics.counter("drive.media_errors").inc()

    # -- scrubbing ------------------------------------------------------------
    def scrub_pass_started(self, now: float, source: str, index: int) -> None:
        self.metrics.counter("scrub.passes_started").inc()
        self.instants.append(
            (now, "scrub", "pass_started", {"source": source, "pass": index})
        )

    def scrub_pass_completed(
        self, now: float, source: str, index: int, bytes_scrubbed: int
    ) -> None:
        self.metrics.counter("scrub.passes_completed").inc()
        self.instants.append(
            (
                now,
                "scrub",
                "pass_completed",
                {"source": source, "pass": index, "bytes": bytes_scrubbed},
            )
        )

    def scrub_progress(self, now: float, source: str, fraction: float) -> None:
        self.metrics.counter("scrub.extents").inc()
        self.metrics.gauge("scrub.progress").set(fraction)
        self.progress_samples.append((now, source, fraction))

    # -- faults ------------------------------------------------------------
    def fault_event(self, now: float, kind: str, lbn: int, **args: Any) -> None:
        self.metrics.counter(f"faults.{kind}").inc()
        payload: Dict[str, Any] = {"lbn": lbn}
        payload.update(args)
        self.instants.append((now, "faults", kind, payload))

    # -- engine -------------------------------------------------------------
    def engine_run(
        self, events: int, sim_time: float, wall_seconds: Optional[float]
    ) -> None:
        metrics = self.metrics
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.events").inc(events)
        metrics.gauge("engine.sim_time_s").set(sim_time)
        if self.wall_time and wall_seconds is not None:
            wall = metrics.gauge("engine.wall_seconds")
            wall.set(wall.value + wall_seconds)
            total_wall = wall.value
            if total_wall > 0:
                metrics.gauge("engine.events_per_wall_second").set(
                    metrics.counter("engine.events").value / total_wall
                )

    # -- export --------------------------------------------------------------
    def chrome_events(self, process_name: str = "sim") -> List[dict]:
        """This recording as Chrome trace-event dicts on process id 0
        (see :mod:`repro.obs.trace`): a thread per request source, in
        order of first completion."""
        from repro.obs.trace import encode_events

        tids: Dict[str, int] = {}
        spans = []
        for (
            submit, dispatch, complete, opcode, lbn, sectors, priority,
            source, seek, rotation, transfer, cache_hit, status,
        ) in self.requests:
            tid = tids.setdefault(source, len(tids) + 1)
            args = {
                "lbn": lbn,
                "sectors": sectors,
                "priority": priority,
                "source": source,
            }
            spans.append((f"wait {opcode}", "queue", submit, dispatch, tid, args))
            spans.append(
                (
                    opcode, "service", dispatch, complete, tid,
                    {
                        **args,
                        "seek_s": seek,
                        "rotation_s": rotation,
                        "transfer_s": transfer,
                        "cache_hit": cache_hit,
                        "status": status,
                    },
                )
            )
        return encode_events(
            process_name,
            [(tid, source) for source, tid in tids.items()],
            spans,
            [
                (name, category, ts, 0, args or {})
                for ts, category, name, args in self.instants
            ],
            [
                (f"scrub progress ({source})", ts, {"fraction": round(fraction, 6)})
                for ts, source, fraction in self.progress_samples
            ],
            scope="p",
        )

    def export(self) -> dict:
        """Picklable bundle: metric snapshot plus Chrome trace events
        (process id 0).

        This is what sweep tasks attach to their results so a parallel
        run can be merged into one fleet summary / one trace file.
        """
        return {"metrics": self.metrics.snapshot(), "events": self.chrome_events()}
