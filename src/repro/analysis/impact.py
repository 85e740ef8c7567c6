"""Scrubbing impact on foreground workloads (Figs. 3, 6a, 6b).

Runs a synthetic foreground workload and (optionally) a scrubber on
the full simulated stack and reports both sides' throughput plus the
foreground response-time sample.  :class:`ScrubberSetup` captures the
configuration axes of the paper's experiments: algorithm, request
size, priority class, kernel- vs user-level semantics, and the delay
discipline between requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk.models import DriveSpec


@dataclass(frozen=True)
class ImpactResult:
    """Both sides of one impact experiment."""

    horizon: float
    foreground_bytes: int
    scrubber_bytes: int
    fg_response_times: np.ndarray

    @property
    def foreground_mbps(self) -> float:
        return self.foreground_bytes / self.horizon / 1e6

    @property
    def scrubber_mbps(self) -> float:
        return self.scrubber_bytes / self.horizon / 1e6


def run_impact_experiment(
    spec: DriveSpec,
    workload: str = "sequential",
    scrubber: Optional[ScrubberSetup] = None,
    horizon: float = 30.0,
    idle_gate: float = 0.010,
) -> ImpactResult:
    """Run foreground (+ optional scrubber) for ``horizon`` seconds,
    drive cache off.

    Parameters
    ----------
    workload:
        ``"sequential"`` (8 MB chunks of 64 KB reads) or ``"random"``
        (random 64 KB reads), both with exponential think times of mean
        100 ms drawn from seed 1 — the paper's two synthetic
        workloads.
    scrubber:
        ``None`` runs the foreground alone (the "None" bars).
    idle_gate:
        CFQ Idle-class gate.  The paper documents 10 ms; its measured
        behaviour corresponded to a near-zero effective gate, so the
        Fig. 3/6 benches run both.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    stack = ScrubStack(spec, scrubber, idle_gate=idle_gate, cache_enabled=False)
    stack.reader(workload, 1, 0.100)
    stack.run(horizon)
    log = stack.device.log
    return ImpactResult(
        horizon=horizon,
        foreground_bytes=log.bytes_completed("foreground"),
        scrubber_bytes=stack.scrubber.bytes_scrubbed if stack.scrubber else 0,
        fg_response_times=log.response_times("foreground"),
    )
