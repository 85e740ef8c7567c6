"""Standalone scrubber throughput measurements (Figs. 4, 5a, 5b).

Runs a scrubber alone on a simulated drive and reports throughput —
the full-stack analogue of the paper's parameter-exploration
experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.scrubber import ScrubAlgorithm, Scrubber
from repro.disk.commands import SECTOR_SIZE, DiskCommand
from repro.disk.drive import Drive
from repro.disk.models import DriveSpec
from repro.sched.device import BlockDevice
from repro.sched.noop import NoopScheduler
from repro.sim import Simulation


def standalone_scrub_throughput(
    spec: DriveSpec,
    algorithm: ScrubAlgorithm,
    request_bytes: int = 64 * 1024,
    horizon: float = 15.0,
    delay: float = 0.0,
    telemetry=None,
) -> float:
    """Scrub throughput (bytes/second) with no foreground workload.

    ``telemetry`` optionally threads a
    :class:`~repro.obs.sink.TelemetrySink` through the run; recording
    does not change the measured throughput.  Like
    :meth:`ScrubStack.run() <repro.analysis.stack.ScrubStack.run>` the
    run ends by closing the simulation over the two processes it
    started, so a returned call leaves nothing for the collector.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    sim = Simulation(telemetry=telemetry)
    device = BlockDevice(sim, Drive(spec, cache_enabled=False), NoopScheduler())
    scrubber = Scrubber(sim, device, algorithm, request_bytes=request_bytes, delay=delay)
    process = scrubber.start()
    sim.run(until=horizon)
    throughput = scrubber.throughput(horizon)
    sim.close((device.dispatcher, process))
    return throughput


def verify_response_times(
    spec: DriveSpec,
    request_bytes: int,
    pattern: str = "random",
    samples: int = 60,
    cache_enabled: bool = False,
) -> np.ndarray:
    """Response times of individual VERIFY commands (Figs. 1, 4).

    ``pattern`` is ``"random"`` (Fig. 4's service-time measurement) or
    ``"sequential"`` (Fig. 1's access pattern).  Random LBNs come from
    seed 0; each command is issued 50 µs after the previous one
    completes.
    """
    if pattern not in ("random", "sequential"):
        raise ValueError(f"unknown pattern: {pattern!r}")
    if samples <= 0:
        raise ValueError(f"samples must be positive: {samples}")
    drive = Drive(spec, cache_enabled=cache_enabled)
    sectors = max(1, request_bytes // SECTOR_SIZE)
    rng = np.random.default_rng(0)
    now, lbn, times = 0.0, 0, []
    for _ in range(samples):
        if pattern == "random":
            lbn = int(rng.integers(0, drive.total_sectors - sectors))
        breakdown = drive.service(DiskCommand.verify(lbn, sectors), now)
        times.append(breakdown.total)
        now = breakdown.finish + 5e-5
        if pattern == "sequential":
            lbn += sectors
    return np.asarray(times)
