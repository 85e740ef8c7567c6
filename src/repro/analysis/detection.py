"""Detection and remediation of injected latent sector errors.

The robustness companion to the paper's performance experiments: given
a seeded fault plan (:mod:`repro.faults`), how quickly does each scrub
policy *find* the errors, who finds them (scrubber vs foreground I/O),
and how many are silently missed because the ATA ``VERIFY`` firmware
bug served the scrub from the drive cache (paper Fig. 1)?

:func:`run_detection_experiment` generates the fault plan, runs a
:class:`~repro.analysis.stack.ScrubStack` — one of the three scrub
policies (Sequential, Staggered, Waiting) with the split/remap/verify
lifecycle enabled, an optional foreground — to a horizon and drains
it, and distils the :class:`~repro.faults.log.ErrorLog` into a
:class:`DetectionMetrics`.

:func:`detection_sweep_task` is the module-level (picklable) wrapper
for :class:`~repro.parallel.runner.SweepRunner` fan-out: the fault
plan is rebuilt inside the worker as a pure function of
``(model, model_params, total_sectors, horizon, seed)``, so serial and
parallel sweeps are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk.drive import Drive
from repro.disk.models import PRESETS, DriveSpec
from repro.faults import (
    ErrorEventKind,
    ErrorLog,
    RemediationPolicy,
    build_model,
)
from repro.traces.record import Trace


def shrunk_spec(spec: DriveSpec, cylinders: int = 50) -> DriveSpec:
    """A tiny-geometry copy of ``spec`` for fast fault experiments.

    Capacity drops to a few MB so full scrub passes take fractions of
    a simulated second, while interface semantics (SCSI vs ATA
    ``VERIFY``, the cache bug flag) and per-command overheads are
    preserved — which is all the detection experiments measure.
    """
    if cylinders <= 0:
        raise ValueError(f"cylinders must be positive: {cylinders}")
    return spec.with_overrides(
        cylinders=cylinders,
        heads=2,
        outer_spt=64,
        inner_spt=64,
        num_zones=1,
    )


@dataclass(frozen=True)
class DetectionMetrics:
    """One run's error lifecycle, distilled from the :class:`ErrorLog`."""

    horizon: float
    #: Errors whose onset fell inside the horizon.
    injected: int
    #: Distinct bad LBNs that produced at least one ``MEDIUM_ERROR``.
    detected: int
    #: ...first detected by a scrub ``VERIFY``.
    scrub_detected: int
    #: ...first detected the hard way, by foreground I/O.
    foreground_detected: int
    #: Commands over bad sectors silently served from the cache.
    cache_mask_events: int
    #: Distinct bad LBNs that were cache-masked and *never* detected.
    missed_due_to_cache: int
    #: Bad sectors moved to the spare pool.
    remapped: int
    #: Remapped sectors with a clean post-remap verify.
    verified_after_remap: int
    #: Mean onset-to-first-detection delay (``None`` if nothing detected).
    mean_time_to_detection: Optional[float]
    #: Every scrub-detected sector ended remapped and verified.
    lifecycle_complete: bool


def compute_detection_metrics(log: ErrorLog, horizon: float) -> DetectionMetrics:
    """Distil an :class:`ErrorLog` into :class:`DetectionMetrics`; a
    detection whose source starts with ``"scrubber"`` is the scrubber's."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    injected = len(log.onsets)
    detected = len(log.detections)
    scrub_detected = len(log.detected_by("scrubber"))
    masked = log.by_kind(ErrorEventKind.CACHE_MASKED)
    missed = {r.lbn for r in masked} - set(log.detections)
    latencies = [
        log.detection_latency(lbn)
        for lbn in log.detections
        if log.detection_latency(lbn) is not None
    ]
    verified = sum(1 for ok in log.verified.values() if ok)
    return DetectionMetrics(
        horizon=horizon,
        injected=injected,
        detected=detected,
        scrub_detected=scrub_detected,
        foreground_detected=detected - scrub_detected,
        cache_mask_events=len(masked),
        missed_due_to_cache=len(missed),
        remapped=len(log.remapped),
        verified_after_remap=verified,
        mean_time_to_detection=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        lifecycle_complete=log.scrub_lifecycle_complete("scrubber"),
    )


@dataclass(frozen=True)
class DetectionResult:
    """One detection experiment: configuration echo plus outcomes."""

    drive: str
    algorithm: str
    cache_enabled: bool
    seed: int
    metrics: DetectionMetrics
    #: Top-level scrub verifies the drive failed (detections by scrub).
    errors_seen: int
    #: Sectors the scrubber localised, remapped and re-verified.
    sectors_remapped: int
    bytes_scrubbed: int
    foreground_bytes: int
    #: Optional telemetry bundle (``{"metrics": snapshot, "events":
    #: chrome_events}``) when the run recorded one; every value inside
    #: is a pure function of the simulation, so results stay
    #: bit-identical across serial and parallel sweeps.
    telemetry: Optional[dict] = None


def run_detection_experiment(
    spec: DriveSpec,
    algorithm: str = "sequential",
    regions: int = 16,
    model: str = "bursts",
    model_params: Optional[dict] = None,
    horizon: float = 5.0,
    seed: int = 0,
    cache_enabled: bool = True,
    request_bytes: int = 64 * 1024,
    foreground: bool = False,
    trace: Optional[Trace] = None,
    time_scale: float = 1.0,
    telemetry=None,
) -> DetectionResult:
    """Run one scrub policy against a seeded fault plan for ``horizon`` s.

    The split/remap/verify lifecycle runs under the default
    :class:`RemediationPolicy` with a 4096-sector spare pool; CFQ's idle
    gate is 10 ms.

    Parameters
    ----------
    algorithm:
        ``"sequential"`` / ``"staggered"`` run the framework
        :class:`Scrubber` under CFQ; ``"waiting"`` runs the
        self-scheduling :class:`WaitingScrubber` (10 ms idle threshold)
        under NOOP, as in the paper's kernel integration.
    model / model_params / seed:
        Fault plan inputs (see :mod:`repro.faults.plan`); the plan is a
        pure function of these plus the drive size and horizon.
    foreground:
        Add a closed-loop :class:`RandomReader` (50 ms mean think time),
        so errors can also be found "the hard way" and detection sources
        compete.
    trace / time_scale:
        Replay a recorded trace as the foreground load instead
        (open-loop, LBNs wrapped onto the shrunk drive).  Mutually
        exclusive with ``foreground``.
    telemetry:
        Optional :class:`~repro.obs.sink.TelemetrySink` threaded
        through the whole stack (engine, device, drive, scrubber,
        remediation).  Recording never perturbs the run.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    if trace is not None and foreground:
        raise ValueError("pass either trace or foreground, not both")
    plan = build_model(model, **(model_params or {})).generate(
        Drive(spec, cache_enabled=False).total_sectors, horizon, seed
    )
    stack = ScrubStack(
        spec,
        ScrubberSetup(
            algorithm=algorithm,
            regions=regions,
            request_bytes=request_bytes,
            threshold=0.01,
        ),
        idle_gate=0.010,
        cache_enabled=cache_enabled,
        telemetry=telemetry,
        fault_plan=plan,
        spare_sectors=4096,
        remediation=RemediationPolicy(),
    )
    if foreground:
        stack.reader("random", seed, 0.05)
    elif trace is not None:
        stack.replay(trace, time_scale)
    stack.run(horizon, drain=True)
    scrubber = stack.scrubber
    return DetectionResult(
        drive=spec.name,
        algorithm=algorithm,
        cache_enabled=cache_enabled,
        seed=seed,
        metrics=compute_detection_metrics(stack.faults.log, horizon),
        errors_seen=scrubber.errors_seen,
        sectors_remapped=scrubber.sectors_remapped,
        bytes_scrubbed=scrubber.bytes_scrubbed,
        foreground_bytes=stack.device.log.bytes_completed("foreground"),
    )


def detection_sweep_task(
    drive: str = "ultrastar",
    cylinders: int = 50,
    algorithm: str = "sequential",
    regions: int = 16,
    model: str = "bursts",
    model_params: Optional[dict] = None,
    horizon: float = 5.0,
    seed: int = 0,
    cache_enabled: bool = True,
    cache_bug: Optional[bool] = None,
    foreground: bool = False,
    trace: Optional[Trace] = None,
    time_scale: float = 1.0,
    request_bytes: int = 64 * 1024,
    collect_telemetry: bool = False,
) -> DetectionResult:
    """Picklable sweep task: one detection run on a shrunk preset drive.

    ``cache_bug`` forces the ATA ``VERIFY``-from-cache firmware bug on
    or off while keeping the geometry (and therefore the scrub
    schedule) identical — the clean A/B for the Fig. 1 payoff.

    ``trace`` replays a recorded workload as the foreground load (see
    :func:`run_detection_experiment`).  When fanned out through
    :class:`~repro.parallel.runner.SweepRunner`, the forked workers
    inherit the trace (no copy is sent) and it enters the cache key as
    its content digest.

    ``collect_telemetry`` records the run with a fresh
    :class:`~repro.obs.sink.Recorder` (wall-clock stats off, so the
    bundle is deterministic) and attaches its export to the result;
    fleet-level summaries merge these per-task bundles in input order,
    preserving serial == parallel bit-identity.
    """
    if drive not in PRESETS:
        raise ValueError(
            f"unknown drive {drive!r}; choose from {sorted(PRESETS)}"
        )
    spec = shrunk_spec(PRESETS[drive](), cylinders=cylinders)
    if cache_bug is not None:
        spec = spec.with_overrides(ata_verify_cache_bug=cache_bug)
    recorder = None
    if collect_telemetry:
        from repro.obs.sink import Recorder

        recorder = Recorder(wall_time=False)
    result = run_detection_experiment(
        spec,
        algorithm=algorithm,
        regions=regions,
        model=model,
        model_params=model_params,
        horizon=horizon,
        seed=seed,
        cache_enabled=cache_enabled,
        foreground=foreground,
        trace=trace,
        time_scale=time_scale,
        request_bytes=request_bytes,
        telemetry=recorder,
    )
    if recorder is not None:
        result = replace(result, telemetry=recorder.export())
    return result
