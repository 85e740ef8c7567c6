"""Seeded configuration fuzzer for the correctness harness.

:func:`fuzz` draws deterministic random configurations from the cross
product (workload trace × scrub algorithm × drive/interface × fault
plan × scheduler tunables), runs each one under the runtime invariant
checker and the differential oracle, and — batch-level, one process
pool per fleet — through the serial-vs-parallel axis.  The same
``(seed, n)`` always draws the same configurations, so a CI failure
reproduces locally with nothing but the seed.

A failing configuration is **minimised** greedily: every parameter
that differs from the quiet baseline defaults is reset in turn, and
the reset sticks whenever the failure (any
:class:`~repro.verify.invariants.InvariantViolation` or
:class:`~repro.verify.differential.DifferentialMismatch`) persists.
The survivor — usually two or three interesting parameters — is
reprinted as a copy-pasteable snippet::

    from repro.verify import run_axes
    run_axes({'family': 'fault-injected', 'algorithm': 'staggered', 'seed': 4111})
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.verify.differential import AXES, DifferentialMismatch, check_parallel, run_axes
from repro.verify.invariants import InvariantViolation

__all__ = ["DEFAULTS", "FuzzFailure", "FuzzReport", "fuzz", "generate_configs", "minimise"]

#: The quiet baseline configuration minimisation shrinks towards; keys
#: double as the set of parameters the fuzzer is allowed to vary.
DEFAULTS: Dict[str, object] = {
    "family": "synthetic",
    "drive": "ultrastar",
    "cylinders": 30,
    "algorithm": "sequential",
    "regions": 8,
    "request_kb": 64,
    "horizon": 0.3,
    "seed": 0,
    "trace_name": "TPCdisk66",
    "rate_scale": 1.0,
    "chunk_requests": 64,
    "model": "bursts",
    "spare_sectors": 512,
    "cache_enabled": True,
    "cache_bug": None,
    "threshold": 0.005,
    "idle_gate": 0.002,
    "scrub_delay": 0.0,
}

#: Failure classes the harness is designed to catch; anything else
#: (e.g. a raw crash) is reported as a failure too, not swallowed.
_EXPECTED = (InvariantViolation, DifferentialMismatch)


def generate_configs(seed: int, n: int) -> List[dict]:
    """Draw ``n`` deterministic scenario configurations.

    Every field is drawn on every iteration (no draw depends on a
    previous choice), so config ``i`` of ``(seed, n)`` equals config
    ``i`` of ``(seed, m)`` for ``i < min(n, m)`` — trimming a fuzz run
    never reshuffles it.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative: {n}")
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        family = ("synthetic", "trace-replay", "fault-injected")[
            int(rng.integers(3))
        ]
        drive = ("ultrastar", "max3073rc", "caviar")[int(rng.integers(3))]
        algorithm = ("sequential", "staggered", "waiting")[int(rng.integers(3))]
        regions = int(rng.integers(2, 17))
        request_kb = (16, 32, 64, 128)[int(rng.integers(4))]
        cylinders = int(rng.integers(20, 41))
        horizon = round(float(rng.uniform(0.15, 0.4)), 3)
        trace_name = ("TPCdisk66", "MSRusr1", "HPc6t8d0")[int(rng.integers(3))]
        rate_scale = round(float(rng.uniform(0.5, 2.0)), 3)
        chunk_requests = (16, 64, 256)[int(rng.integers(3))]
        model = ("bernoulli", "bursts")[int(rng.integers(2))]
        spare_sectors = (4, 64, 512)[int(rng.integers(3))]
        cache_enabled = bool(rng.integers(2))
        cache_bug = (None, False, True)[int(rng.integers(3))]
        threshold = round(float(rng.uniform(0.001, 0.02)), 4)
        idle_gate = round(float(rng.uniform(0.0005, 0.005)), 4)
        scrub_delay = (0.0, 0.0005)[int(rng.integers(2))]
        run_seed = int(rng.integers(0, 2**31 - 1))
        configs.append(
            {
                "family": family,
                "drive": drive,
                "cylinders": cylinders,
                "algorithm": algorithm,
                "regions": regions,
                "request_kb": request_kb,
                "horizon": horizon,
                "seed": run_seed,
                "trace_name": trace_name,
                "rate_scale": rate_scale,
                "chunk_requests": chunk_requests,
                "model": model,
                "spare_sectors": spare_sectors,
                "cache_enabled": cache_enabled,
                "cache_bug": cache_bug,
                "threshold": threshold,
                "idle_gate": idle_gate,
                "scrub_delay": scrub_delay,
            }
        )
    return configs


def _failure_of(params: dict, axes: Sequence[str]):
    """Run one config through the oracle.

    Returns ``(failure-or-None, agreed-signatures)``.
    """
    try:
        return None, run_axes(params, axes=axes)
    except _EXPECTED as exc:
        return exc, {}


def minimise(
    params: dict,
    axes: Sequence[str],
    still_fails: Optional[Callable[[dict], bool]] = None,
) -> dict:
    """Greedy one-pass shrink of a failing configuration.

    Resets each parameter to its :data:`DEFAULTS` value (most-complex
    first: family, then fault/workload knobs, then tunables) and keeps
    the reset whenever the configuration still fails.  One pass is
    enough in practice; the result is a local minimum, not a global
    one — it exists to make the repro snippet readable, not canonical.
    """
    if still_fails is None:
        still_fails = lambda p: _failure_of(p, axes)[0] is not None
    current = dict(params)
    for key in DEFAULTS:
        if key not in current or current[key] == DEFAULTS[key]:
            continue
        candidate = dict(current)
        candidate[key] = DEFAULTS[key]
        if still_fails(candidate):
            current = candidate
    return current


def repro_snippet(params: dict, axes: Sequence[str]) -> str:
    """Copy-pasteable reproduction of a failing configuration."""
    interesting = {
        k: v
        for k, v in params.items()
        if k not in DEFAULTS or DEFAULTS[k] != v
    }
    lines = ["from repro.verify import run_axes", ""]
    per_config_axes = tuple(a for a in AXES if a != "parallel")
    if tuple(axes) != per_config_axes and tuple(axes) != tuple(AXES):
        lines.append(f"run_axes({interesting!r}, axes={tuple(axes)!r})")
    else:
        lines.append(f"run_axes({interesting!r})")
    return "\n".join(lines)


@dataclass
class FuzzFailure:
    """One failing configuration, minimised and ready to reprint."""

    index: int
    params: dict
    error: Exception
    minimised: dict
    snippet: str

    def describe(self) -> str:
        head = type(self.error).__name__
        return (
            f"config #{self.index} failed ({head}):\n"
            f"{self.error}\n"
            f"minimised repro:\n{self.snippet}"
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` fleet."""

    seed: int
    configs: int
    axes: tuple
    passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    #: Agreed differential signatures per config index (diagnostics).
    signatures: Dict[int, Dict[str, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"verify fuzz [{status}]: {self.passed}/{self.configs} configs "
            f"passed (seed {self.seed}, axes {'/'.join(self.axes)})"
        )


def fuzz(
    seed: int = 0,
    n: int = 50,
    axes: Optional[Sequence[str]] = None,
    parallel_workers: int = 2,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Fuzz ``n`` seeded configurations under the full harness.

    Per config: the invariant checker (via the ``kernel-twin`` axis,
    which runs it as the sink of one side) and the per-scenario
    differential axes.  Per fleet: one batch serial-vs-parallel comparison over
    every configuration that passed, so the pool is spawned twice per
    fuzz run rather than twice per config.  ``axes=()`` restricts to
    invariants only (each config runs once, validated).

    Never raises on a finding — failures are minimised and collected
    into the returned :class:`FuzzReport`.
    """
    selected = tuple(axes) if axes is not None else AXES
    per_config = tuple(a for a in selected if a != "parallel")
    report = FuzzReport(seed=seed, configs=n, axes=selected)
    healthy: List[dict] = []
    for index, params in enumerate(generate_configs(seed, n)):
        if progress is not None:
            progress(index, n)
        if per_config:
            error, signatures = _failure_of(params, per_config)
        else:
            # Invariants only: a single validated run.
            from repro.verify.scenario import run_scenario

            error, signatures = None, {}
            try:
                run_scenario(**params, telemetry="invariants")
            except _EXPECTED as exc:
                error = exc
        if error is None:
            report.passed += 1
            healthy.append(params)
            if signatures:
                report.signatures[index] = signatures
            continue
        minimised = (
            minimise(params, per_config) if per_config else dict(params)
        )
        report.failures.append(
            FuzzFailure(
                index=index,
                params=params,
                error=error,
                minimised=minimised,
                snippet=repro_snippet(minimised, per_config or selected),
            )
        )
    if "parallel" in selected and healthy:
        try:
            check_parallel(healthy, workers=parallel_workers)
        except _EXPECTED as exc:
            report.failures.append(
                FuzzFailure(
                    index=-1,
                    params=getattr(exc, "params", {}),
                    error=exc,
                    minimised=getattr(exc, "params", {}),
                    snippet=(
                        "from repro.verify import check_parallel\n"
                        f"check_parallel([{getattr(exc, 'params', {})!r}])"
                    ),
                )
            )
    return report
