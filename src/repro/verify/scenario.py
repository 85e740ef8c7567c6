"""Uniform seeded scenario runner for the correctness harness.

Every pillar of :mod:`repro.verify` needs the same primitive: *build
the full stack from a flat picklable parameter dict, run it, and
return a deterministic, picklable outcome*.  :func:`run_scenario` is
that primitive.  It runs the same assembly as ``repro detect``,
``repro trace`` and the figure experiments —
:class:`repro.analysis.stack.ScrubStack` — so what the fuzzer, the
differential axes and the planted-bug self-test validate is the code
those ship.  On top it exposes the switches the oracle flips —
telemetry mode, replay feed — as first-class parameters, and distils
the run into a plain ``dict`` that
:func:`repro.parallel.cache.canonicalize` can hash, so two runs agree
iff their outcome signatures agree.

Three scenario families cover the stack's behavioural envelope:

``synthetic``
    A generated catalog trace replayed open-loop against the drive
    while a scrubber walks it.  No faults: the pure scheduling core.
``trace-replay``
    The same trace but *pre-chunked* before feeding, exercising the
    streamed-chunk reassembly path of :class:`TraceReplayer` on top of
    the feed axis.
``fault-injected``
    Adds a seeded fault plan, media-error detection and the full
    split/remap/verify remediation lifecycle.

All three accept ``feed="arrays" | "records"`` (the batched cursor vs
the legacy record-generator replayer path) and
``telemetry="none" | "invariants" | "recorder"``.  Outcomes are split
into *core* keys — which must be bit-identical across every axis the
oracle flips — and the ``"telemetry"`` key, which only exists when a
recorder was attached.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.detection import compute_detection_metrics, shrunk_spec
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk.drive import Drive
from repro.disk.models import PRESETS
from repro.faults import RemediationPolicy, build_model
from repro.traces.catalog import generate_trace
from repro.traces.record import Trace

__all__ = ["FAMILIES", "FEEDS", "TELEMETRY_MODES", "run_scenario"]

#: Scenario families the harness understands.
FAMILIES = ("synthetic", "trace-replay", "fault-injected")
#: Replay feeds (the PR 4 differential axis).
FEEDS = ("arrays", "records")
#: Telemetry modes (the PR 3 differential axis plus the checker).
TELEMETRY_MODES = ("none", "invariants", "recorder")

#: Default fault-model parameters for the harness's tiny drives and
#: sub-second horizons.  The stock model defaults are calibrated for
#: disk-days and would inject ~0 errors here, leaving the fault
#: lifecycle unexercised; these densities yield a handful of errors
#: per run.
_FAULT_DEFAULTS = {
    "bernoulli": {"per_sector_probability": 0.002},
    "bursts": {
        "inter_burst_mean": 0.08,
        "mean_burst_length": 4.0,
        "in_burst_time_mean": 0.01,
    },
}


def _chunked(trace: Trace, chunk_requests: int):
    """Slice ``trace`` into column-view chunks (no copies)."""
    chunks = []
    for start in range(0, len(trace), chunk_requests):
        end = min(start + chunk_requests, len(trace))
        chunks.append(
            Trace(
                trace.times[start:end],
                trace.lbns[start:end],
                trace.sectors[start:end],
                trace.is_write[start:end],
                name=trace.name,
                capacity_sectors=trace.capacity_sectors,
                validate=False,
            )
        )
    return chunks


def _build_sink(telemetry: str, total_sectors: int):
    if telemetry == "none":
        return None
    if telemetry == "invariants":
        from repro.verify.invariants import InvariantSink

        return InvariantSink(total_sectors=total_sectors)
    if telemetry == "recorder":
        from repro.obs.sink import Recorder

        return Recorder(wall_time=False)
    raise ValueError(
        f"telemetry must be one of {TELEMETRY_MODES}: {telemetry!r}"
    )


def run_scenario(
    family: str = "synthetic",
    drive: str = "ultrastar",
    cylinders: int = 30,
    algorithm: str = "sequential",
    regions: int = 8,
    request_kb: int = 64,
    horizon: float = 0.4,
    seed: int = 0,
    trace_name: str = "TPCdisk66",
    rate_scale: float = 1.0,
    time_scale: float = 1.0,
    feed: str = "arrays",
    chunk_requests: int = 64,
    model: str = "bursts",
    model_params: Optional[dict] = None,
    spare_sectors: int = 512,
    cache_enabled: bool = True,
    cache_bug: Optional[bool] = None,
    threshold: float = 0.005,
    idle_gate: float = 0.002,
    scrub_delay: float = 0.0,
    telemetry: str = "none",
) -> dict:
    """Run one seeded scenario end to end; return its outcome dict.

    The function is module-level and all parameters are plain values,
    so it fans out through :class:`~repro.parallel.runner.SweepRunner`
    unchanged — the serial-vs-parallel differential axis maps exactly
    this function.

    Returns a dict whose non-``"telemetry"`` keys are a pure function
    of the parameters: device/request accounting, the foreground
    response-time array, scrub counters, the distilled fault lifecycle
    and the engine's final clock and event sequence.  With
    ``telemetry="recorder"`` the recorder's request event stream and
    metric snapshot ride along under ``"telemetry"``; with
    ``telemetry="invariants"`` the run is validated live (and the
    post-run checks executed) before the outcome is returned.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}: {family!r}")
    if feed not in FEEDS:
        raise ValueError(f"feed must be one of {FEEDS}: {feed!r}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    if drive not in PRESETS:
        raise ValueError(f"unknown drive {drive!r}; choose from {sorted(PRESETS)}")

    spec = shrunk_spec(PRESETS[drive](), cylinders=cylinders)
    if cache_bug is not None:
        spec = spec.with_overrides(ata_verify_cache_bug=cache_bug)
    total_sectors = Drive(spec, cache_enabled=False).total_sectors

    sink = _build_sink(telemetry, total_sectors)
    plan = None
    if family == "fault-injected":
        if model_params is None:
            model_params = _FAULT_DEFAULTS.get(model, {})
        plan = build_model(model, **model_params).generate(
            total_sectors, horizon, seed
        )
    stack = ScrubStack(
        spec,
        ScrubberSetup(
            algorithm=algorithm,
            regions=regions,
            request_bytes=request_kb * 1024,
            delay=scrub_delay,
            threshold=threshold,
        ),
        idle_gate=idle_gate,
        cache_enabled=cache_enabled,
        telemetry=sink,
        fault_plan=plan,
        spare_sectors=spare_sectors,
        remediation=RemediationPolicy() if plan is not None else None,
    )
    sim, device, scrubber, faults = (
        stack.sim, stack.device, stack.scrubber, stack.faults
    )

    # Foreground: a generated catalog trace replayed open-loop.  The
    # trace is a pure function of (trace_name, horizon, seed,
    # rate_scale), so every axis of a differential pair rebuilds the
    # identical workload.
    trace = generate_trace(
        trace_name, duration=horizon, seed=seed, rate_scale=rate_scale
    )
    if family == "trace-replay":
        source = _chunked(trace, chunk_requests)
        if feed == "records":
            # Chunk-then-reassemble through the record path: same
            # requests, radically different plumbing.
            source = (r for chunk in source for r in chunk.records())
    else:
        source = trace if feed == "arrays" else trace.records()
    stack.replay(source, time_scale)
    stack.run(horizon, drain=True)

    if telemetry == "invariants":
        sink.finish(faults)

    response_times = device.log.response_times("foreground")
    outcome = {
        "family": family,
        "algorithm": algorithm,
        "seed": seed,
        "clock": sim.now,
        "event_seq": sim._seq,
        "completed": len(device.log),
        "foreground_completed": device.log.count("foreground"),
        "foreground_bytes": device.log.bytes_completed("foreground"),
        "response_times": np.asarray(response_times, dtype=float),
        "scrub": {
            "requests_issued": scrubber.requests_issued,
            "bytes_scrubbed": scrubber.bytes_scrubbed,
            "passes_completed": scrubber.passes_completed,
            "errors_seen": scrubber.errors_seen,
            "sectors_remapped": scrubber.sectors_remapped,
        },
    }
    if faults is not None:
        metrics = compute_detection_metrics(faults.log, horizon)
        outcome["faults"] = {
            "injected": metrics.injected,
            "detected": metrics.detected,
            "scrub_detected": metrics.scrub_detected,
            "cache_mask_events": metrics.cache_mask_events,
            "remapped": metrics.remapped,
            "verified_after_remap": metrics.verified_after_remap,
            "lifecycle_complete": metrics.lifecycle_complete,
            "records": [
                (r.time, r.kind.value, r.lbn, r.source, r.opcode, r.ok)
                for r in faults.log.records
            ],
        }
    if telemetry == "recorder":
        outcome["telemetry"] = {
            "requests": list(sink.requests),
            "instants": list(sink.instants),
            "progress": list(sink.progress_samples),
            "metrics": sink.metrics.snapshot(),
        }
    return outcome
