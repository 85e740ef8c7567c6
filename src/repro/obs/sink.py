"""Telemetry sinks: the hook protocol and the recorder.

Modelled on Linux blktrace's request lifecycle (queue -> dispatch ->
complete): every instrumented layer calls a small set of typed hooks on
a sink.  The engine carries the sink (``Simulation(telemetry=...)``)
and every component picks it up from there; ``None`` is the one way
to say "no sink", so recording off costs one ``is not None`` test on
cold paths and nothing at all in the kernel's hot loop.

* :class:`TelemetrySink` — the protocol; every hook is a no-op, so a
  sink overrides only the hooks it cares about.  The device hands
  every sink its :class:`~repro.sched.device.RequestLog`
  (:meth:`TelemetrySink.attach_log`), so no sink keeps a per-request
  copy of what the log holds.
* :class:`Recorder` — keeps counters, instants and engine statistics
  online and reads every per-request figure off the log when it is
  read.  (:class:`~repro.verify.invariants.InvariantSink` validates
  the same hooks and reads the same log.)

Determinism contract: a sink only *observes*.  It must never touch a
random stream, schedule an event, or mutate simulation state — with
recording on or off, a simulation pops exactly the same events in
exactly the same order.  The one non-deterministic input, wall-clock
time, is dropped by default (``Recorder(wall_time=False)``) so recorded
metric snapshots stay bit-identical across runs and across serial vs
parallel execution.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["Recorder", "TelemetrySink"]


class TelemetrySink:
    """The hook protocol: every hook is a no-op, and a sink overrides
    the hooks it cares about."""

    # -- request lifecycle (blktrace Q/D/C) --------------------------------
    def attach_log(self, log: Any) -> None:
        """The device's :class:`~repro.sched.device.RequestLog`, handed
        over once by :class:`~repro.sched.device.BlockDevice` when it is
        built, for a sink that reads the completed requests off it
        instead of keeping its own copy."""

    def request_queued(self, now: float, request: Any) -> None:
        """A request entered the scheduler queue."""

    def request_dispatched(self, now: float, request: Any) -> None:
        """The dispatcher handed a request to the drive."""

    def request_completed(self, now: float, request: Any) -> None:
        """A request completed; ``request`` carries its timestamps and
        the drive's :class:`~repro.disk.drive.ServiceBreakdown`."""

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
    """In-memory sink: a metrics registry, instants and progress samples
    online, and every per-request figure read off the device's log.

    Parameters
    ----------
    wall_time:
        Record wall-clock engine statistics (``engine.wall_seconds``,
        ``engine.events_per_wall_second``).  Off by default because
        wall time is the only non-deterministic value in the registry;
        leave it off when snapshots must be bit-identical across runs
        (the serial == parallel sweep guarantee).

    Request spans and request metrics (``device.completed`` / ``bytes``
    / ``media_errors``, ``drive.*``, the six time histograms) are read
    off the log given to :meth:`attach_log`, in completion order, when
    the recording is read; a log capped at ``max_records`` caps them and
    the progress samples alike.
    """

    def __init__(self, wall_time: bool = False) -> None:
        #: The online metrics; :meth:`snapshot` adds the log's.
        self.metrics = MetricsRegistry()
        self.wall_time = wall_time
        #: The attached :class:`~repro.sched.device.RequestLog`, if any.
        self.log = None
        #: (ts, category, name, args) point events.
        self.instants: List[Tuple] = []
        #: (ts, source, fraction) scrub-progress counter samples.
        self.progress_samples = []
        # Bound once; :meth:`snapshot` leaves them out until they count.
        self._submitted = self.metrics.counter("device.submitted")
        self._dispatched = self.metrics.counter("device.dispatched")
        self._extents = self.metrics.counter("scrub.extents")
        self._progress = self.metrics.gauge("scrub.progress")

    # -- request lifecycle ---------------------------------------------------
    def attach_log(self, log: Any) -> None:
        if self.log is not None and self.log is not log:
            raise ValueError("a Recorder reads the request log of one device")
        self.log = log
        if log.max_records is not None:
            self.progress_samples = deque(
                self.progress_samples, maxlen=log.max_records
            )

    def request_queued(self, now: float, request: Any) -> None:
        self._submitted.value += 1

    def request_dispatched(self, now: float, request: Any) -> None:
        self._dispatched.value += 1

    def _requests(self) -> list:
        """The attached log's requests, oldest first."""
        if self.log is None and self._submitted.value:
            raise RuntimeError(
                f"this Recorder heard {self._submitted.value} requests but "
                "was given no request log (attach_log)"
            )
        return self.log.requests() if self.log is not None else []

    # -- scrubbing ------------------------------------------------------------
    def scrub_pass_started(self, now: float, source: str, index: int) -> None:
        self.metrics.counter("scrub.passes_started").inc()
        args = {"source": source, "pass": index}
        self.instants.append((now, "scrub", "pass_started", args))

    def scrub_pass_completed(
        self, now: float, source: str, index: int, bytes_scrubbed: int
    ) -> None:
        self.metrics.counter("scrub.passes_completed").inc()
        args = {"source": source, "pass": index, "bytes": bytes_scrubbed}
        self.instants.append((now, "scrub", "pass_completed", args))

    def scrub_progress(self, now: float, source: str, fraction: float) -> None:
        self._extents.value += 1
        self._progress.value = fraction
        self.progress_samples.append((now, source, fraction))

    # -- faults ------------------------------------------------------------
    def fault_event(self, now: float, kind: str, lbn: int, **args: Any) -> None:
        self.metrics.counter(f"faults.{kind}").inc()
        self.instants.append((now, "faults", kind, {"lbn": lbn, **args}))

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
            wall.value += wall_seconds
            if wall.value > 0:
                metrics.gauge("engine.events_per_wall_second").set(
                    metrics.counter("engine.events").value / wall.value
                )

    # -- reading ------------------------------------------------------------
    def snapshot(self) -> dict:
        """The online metrics plus those of a pass over the request log,
        as a plain dict; a metric exists once it counted something, as if
        each request had been counted as it completed."""
        registry = MetricsRegistry()
        requests = self._requests()
        breakdowns = [r.breakdown for r in requests]
        misses = [b for b in breakdowns if not b.cache_hit]
        count, errors = len(requests), len([b for b in breakdowns if not b.ok])
        for name, value in zip(
            ("device.completed", "device.bytes", "device.media_errors",
             "drive.commands", "drive.cache_hits", "drive.media_errors"),
            (count, sum([r.command.bytes for r in requests]), errors,
             count, count - len(misses), errors),
        ):
            if value:
                registry.counter(name).inc(value)
        for name, values in (
            ("device.response_time_s", [r.response_time for r in requests]),
            ("device.wait_time_s", [r.wait_time for r in requests]),
            ("device.service_time_s", [r.service_time for r in requests]),
            ("drive.seek_s", [b.seek for b in misses]),
            ("drive.rotation_s", [b.rotation for b in misses]),
            ("drive.transfer_s", [b.transfer for b in misses]),
        ):
            if values:
                registry.histogram(name).observe_all(values)
        for table in ("counters", "gauges", "histograms"):
            getattr(registry, table).update(getattr(self.metrics, table))
        for counter in (self._submitted, self._dispatched, self._extents):
            if not counter.value:
                del registry.counters[counter.name]
        if not self._extents.value:
            del registry.gauges[self._progress.name]
        return registry.snapshot()

    def chrome_events(self, process_name: str = "sim") -> List[dict]:
        """This recording as Chrome trace-event dicts on process id 0
        (see :mod:`repro.obs.trace`): a thread per request source, in
        order of first completion."""
        from repro.obs.trace import encode_events

        tids: Dict[str, int] = {}
        spans = []
        for request in self._requests():
            command = request.command
            breakdown = request.breakdown
            opcode = command.opcode.value
            source = request.source
            dispatch = request.dispatch_time
            tid = tids.setdefault(source, len(tids) + 1)
            args = {"lbn": command.lbn, "sectors": command.sectors,
                    "priority": request.priority.name, "source": source}
            served = {**args, "seek_s": breakdown.seek,
                      "rotation_s": breakdown.rotation,
                      "transfer_s": breakdown.transfer,
                      "cache_hit": breakdown.cache_hit,
                      "status": breakdown.status.name}
            spans.append((f"wait {opcode}", "queue", request.submit_time, dispatch,
                          tid, args))
            spans.append((opcode, "service", dispatch, request.complete_time, tid,
                          served))
        return encode_events(
            process_name,
            [(tid, source) for source, tid in tids.items()],
            spans,
            [(name, category, ts, 0, args)
             for ts, category, name, args in self.instants],
            [
                (f"scrub progress ({source})", ts, {"fraction": round(fraction, 6)})
                for ts, source, fraction in self.progress_samples
            ],
            scope="p",
        )

    def export(self) -> dict:
        """Picklable bundle: metric snapshot plus Chrome trace events
        (process id 0), which sweep tasks attach to their results so a
        parallel run merges into one fleet summary / one trace file."""
        return {"metrics": self.snapshot(), "events": self.chrome_events()}
