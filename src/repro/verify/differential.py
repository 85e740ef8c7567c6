"""Differential oracle: independent code paths must agree bit-for-bit.

Four PRs of optimisation left the stack with pairs of code paths that
promise identical observable behaviour.  Each promise is an *axis* the
oracle can flip while holding the seeded scenario fixed:

==================  ====================================================
axis                paths compared
==================  ====================================================
``kernel-twin``     no sink vs a live :class:`InvariantSink` — the
                    engine has one loop, so this is sink passivity
                    under the invariant checker; the name (a public
                    ``--axes`` value) predates the single loop
``feed``            legacy record-generator replay vs the PR 4 batched
                    ``_ReplayCursor`` array feed — compared *with* a
                    recorder attached, so the full event stream and
                    metric snapshot participate in the signature
``telemetry``       telemetry off vs a recording :class:`Recorder` —
                    the sink-passivity contract (observation never
                    perturbs)
``parallel``        serial execution vs
                    :class:`~repro.parallel.runner.SweepRunner` on
                    forked workers
``monitor``         a fleet campaign with no observer vs the same
                    campaign under a live
                    :class:`~repro.obs.monitor.CampaignMonitor` — the
                    campaign-scale passivity contract (PR 8)
``fleet-kernel``    :func:`~repro.fleet.montecarlo.fleet_shard_task`
                    (each group walked once, policies settled against
                    the walk) vs the per-(policy, group) reference loop
                    :func:`repro.verify.fleet.reference_shard_task`
==================  ====================================================

Outcomes are reduced to a SHA-256 *signature* through
:func:`repro.parallel.cache.canonicalize` (floats hex-formatted,
arrays hashed by content), so "agree" means bit-identical — a single
ULP of drift or one reordered event flips the signature.  A mismatch
raises :class:`DifferentialMismatch` naming the axis, the parameters
and the first differing key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.parallel.cache import canonicalize
from repro.verify.scenario import run_scenario

__all__ = [
    "AXES",
    "DifferentialMismatch",
    "check_fleet_kernel",
    "check_monitor",
    "check_parallel",
    "outcome_signature",
    "run_axes",
]

#: All axes, in the order ``run_axes`` exercises them.  ``parallel``
#: is batch-level (one pool spawn amortised over many configs) and
#: lives in :func:`check_parallel`; ``monitor`` and ``fleet-kernel``
#: run a small seeded fleet campaign rather than the scenario itself.
AXES = (
    "kernel-twin", "feed", "telemetry", "parallel", "monitor", "fleet-kernel",
)


class DifferentialMismatch(AssertionError):
    """Two code paths that must agree produced different outcomes."""

    def __init__(self, axis: str, params: dict, detail: str) -> None:
        self.axis = axis
        self.params = dict(params)
        self.detail = detail
        super().__init__(
            f"differential axis {axis!r} diverged: {detail}\n"
            f"  scenario: {params!r}"
        )


def outcome_signature(outcome: dict, include_telemetry: bool = True) -> str:
    """SHA-256 signature of a :func:`run_scenario` outcome.

    ``include_telemetry=False`` drops the ``"telemetry"`` key so
    outcomes recorded with different sinks can still be compared on
    the simulation's core behaviour.
    """
    if not include_telemetry:
        outcome = {k: v for k, v in outcome.items() if k != "telemetry"}
    return hashlib.sha256(
        repr(canonicalize(outcome)).encode()
    ).hexdigest()


def _first_difference(a: dict, b: dict) -> str:
    """Human-readable pointer at the first key where outcomes differ."""
    for key in sorted(set(a) | set(b)):
        if key == "telemetry":
            continue
        ca, cb = canonicalize(a.get(key)), canonicalize(b.get(key))
        if ca != cb:
            return f"key {key!r}: {_clip(ca)} != {_clip(cb)}"
    ta, tb = a.get("telemetry"), b.get("telemetry")
    if ta is not None and tb is not None:
        for key in sorted(set(ta) | set(tb)):
            ca, cb = canonicalize(ta.get(key)), canonicalize(tb.get(key))
            if ca != cb:
                return f"telemetry key {key!r}: {_clip(ca)} != {_clip(cb)}"
    return "signatures differ but no key-level difference found"


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


def _compare(
    axis: str, params: dict, a: dict, b: dict, include_telemetry: bool
) -> str:
    sig_a = outcome_signature(a, include_telemetry=include_telemetry)
    sig_b = outcome_signature(b, include_telemetry=include_telemetry)
    if sig_a != sig_b:
        raise DifferentialMismatch(axis, params, _first_difference(a, b))
    return sig_a


def run_axes(
    params: dict, axes: Optional[Sequence[str]] = None
) -> Dict[str, str]:
    """Exercise the per-scenario differential axes on one configuration.

    ``params`` are :func:`run_scenario` kwargs *without* ``feed`` /
    ``telemetry`` (the oracle owns those switches).  Returns the agreed
    signature per axis; raises :class:`DifferentialMismatch` on the
    first divergence.  The ``parallel`` axis is intentionally absent —
    it compares whole batches (:func:`check_parallel`) so the process
    pool is spawned once per fleet, not once per config.
    """
    selected = tuple(axes) if axes is not None else AXES
    unknown = set(selected) - set(AXES)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}; choose from {AXES}")
    base = {k: v for k, v in params.items() if k not in ("feed", "telemetry")}
    signatures: Dict[str, str] = {}

    if "kernel-twin" in selected:
        bare = run_scenario(**base, telemetry="none")
        checked = run_scenario(**base, telemetry="invariants")
        signatures["kernel-twin"] = _compare(
            "kernel-twin", base, bare, checked, include_telemetry=False
        )
    if "feed" in selected:
        arrays = run_scenario(**base, feed="arrays", telemetry="recorder")
        records = run_scenario(**base, feed="records", telemetry="recorder")
        signatures["feed"] = _compare(
            "feed", base, arrays, records, include_telemetry=True
        )
    if "telemetry" in selected:
        off = run_scenario(**base, telemetry="none")
        on = run_scenario(**base, telemetry="recorder")
        signatures["telemetry"] = _compare(
            "telemetry", base, off, on, include_telemetry=False
        )
    if "monitor" in selected:
        signatures["monitor"] = check_monitor(int(base.get("seed", 0) or 0))
    if "fleet-kernel" in selected:
        signatures["fleet-kernel"] = check_fleet_kernel(
            int(base.get("seed", 0) or 0)
        )
    return signatures


def check_monitor(seed: int = 0) -> str:
    """The ``monitor`` axis: campaign observability must be passive.

    Runs one small seeded fleet campaign twice — bare, then under a
    live :class:`~repro.obs.monitor.CampaignMonitor` exercising every
    surface (a status fold and progress line on each event, events
    JSONL, spans, the final files) in a temp directory — and requires
    the canonical campaign metrics and the merged telemetry snapshot
    to be bit-identical.  Latent windows
    are given explicitly so the check stays milliseconds-fast (no MLET
    schedule replay).
    """
    import tempfile

    from repro.fleet.campaign import CampaignRunner
    from repro.fleet.spec import (
        CampaignSpec,
        DriveClass,
        FleetSpec,
        ScrubPolicySpec,
    )
    from repro.obs.monitor import CampaignMonitor

    spec = CampaignSpec(
        fleet=FleetSpec(
            groups=16,
            disks_per_group=4,
            classes=(
                DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=1e-3),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=62.0,
            ),
        ),
        mission_years=5.0,
        seed=seed,
        shards=4,
    )
    bare = CampaignRunner(spec).run()
    with tempfile.TemporaryDirectory() as tmp:
        monitored = CampaignRunner(
            spec,
            monitor=CampaignMonitor(
                tmp, interval=0.0, on_progress=lambda line: None
            ),
        ).run()
    off = {"metrics": bare.metrics_dict(), "telemetry": bare.telemetry}
    on = {"metrics": monitored.metrics_dict(), "telemetry": monitored.telemetry}
    return _compare("monitor", {"seed": seed}, off, on, include_telemetry=True)


def check_fleet_kernel(seed: int = 0) -> str:
    """The ``fleet-kernel`` axis: one walk per group vs the reference loop.

    Runs every shard of a small seeded campaign through
    :func:`~repro.fleet.montecarlo.fleet_shard_task` and through
    :func:`repro.verify.fleet.reference_shard_task`, and requires every
    policy block (``group_hours`` included) and telemetry snapshot to be
    bit-identical.  The campaign is built to separate the two: weighted
    drive classes with wear-out and age jitter (per-group profile
    draws), and three policies of which one has a zero latent window
    (never an ``lse`` loss) and one a very long one.
    """
    from repro.fleet.campaign import CampaignRunner
    from repro.fleet.montecarlo import fleet_shard_task
    from repro.fleet.spec import (
        CampaignSpec,
        DriveClass,
        FleetSpec,
        ScrubPolicySpec,
    )
    from repro.verify.fleet import reference_shard_task

    spec = CampaignSpec(
        fleet=FleetSpec(
            groups=24,
            disks_per_group=4,
            classes=(
                DriveClass(
                    weight=3.0, mttf_hours=2.0e4,
                    lse_burst_rate_per_hour=1e-3, wearout_per_year=0.05,
                ),
                DriveClass(
                    preset="caviar", weight=1.0, mttf_hours=1.0e4,
                    lse_burst_rate_per_hour=4e-3, age_years=2.0,
                    wearout_per_year=0.1,
                ),
            ),
            age_spread_years=3.0,
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(name="never-latent", latent_window_hours=0.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=400.0,
            ),
        ),
        mission_years=5.0,
        seed=seed,
        shards=3,
    )

    def ledgers(task) -> dict:
        outcome: dict = {"telemetry": {}}
        for params in CampaignRunner.shard_param_sets(spec):
            shard = task(**params)
            name = f"shard-{shard['shard']}"
            outcome[name] = shard["policies"]
            outcome["telemetry"][name] = shard["telemetry"]
        return outcome

    return _compare(
        "fleet-kernel", {"seed": seed},
        ledgers(fleet_shard_task), ledgers(reference_shard_task),
        include_telemetry=True,
    )


def check_parallel(
    param_sets: Sequence[dict], workers: int = 2
) -> List[str]:
    """The ``parallel`` axis: serial vs pooled sweep over a whole batch.

    Maps :func:`run_scenario` over ``param_sets`` twice through
    :class:`~repro.parallel.runner.SweepRunner` — once with one worker
    (in-process) and once on ``workers`` forked worker processes — and
    requires position-wise identical outcome signatures.  Returns the
    per-config signatures.
    """
    from repro.parallel.runner import SweepRunner

    if len(param_sets) == 0:
        return []
    jobs = [dict(p, telemetry="recorder") for p in param_sets]
    serial = SweepRunner(workers=1).map(run_scenario, jobs)
    pooled = SweepRunner(workers=workers).map(run_scenario, jobs)
    signatures: List[str] = []
    for params, a, b in zip(jobs, serial, pooled):
        signatures.append(
            _compare("parallel", params, a, b, include_telemetry=True)
        )
    return signatures
