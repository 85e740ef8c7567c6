"""The scrub-side error lifecycle: localise, remap, re-verify.

A scrub request covers many sectors (64 KB – 4 MB), but a ``MEDIUM
ERROR`` only says *something* in the range is bad.  The remediation
generator localises the bad sector(s) by **splitting on error**: a
failing extent is re-verified as two halves, recursing down to single
sectors, with a bounded exponential backoff between retries (real
drives spend heavy retry effort on errors, and hammering a marginal
region back-to-back is exactly what firmware avoids).  Each localised
sector is **reallocated** to the spare pool and then **verified after
remap**, so the lifecycle of every scrub-detected error ends with a
``REALLOCATED`` + ``VERIFY_AFTER_REMAP(ok)`` pair in the
:class:`~repro.faults.log.ErrorLog`.

One caller runs the generator: the scrubber's detection step
(``Scrubber._detected``), which both pacings share — the delay-paced
:class:`~repro.core.scrubber.Scrubber` and its idle-paced subclass
:class:`~repro.core.policies.device.WaitingScrubber` (DESIGN §6.4).
It is written in the simulation's process style (``yield`` events) and
driven with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.disk.commands import CommandStatus


@dataclass(frozen=True)
class RemediationPolicy:
    """Tunables for the split/remap/verify lifecycle.

    Parameters
    ----------
    backoff:
        Initial delay before re-probing a failed extent's halves.
    backoff_factor / max_backoff:
        The delay grows geometrically with split depth, bounded.
    remap_time:
        Time one spare-pool reallocation occupies the drive.
    verify_after_remap:
        Issue a confirming ``VERIFY`` on the remapped sector.
    max_verify_retries:
        Attempts at a clean post-remap verify before giving up.
    """

    backoff: float = 1e-3
    backoff_factor: float = 2.0
    max_backoff: float = 0.1
    remap_time: float = 0.05
    verify_after_remap: bool = True
    max_verify_retries: int = 2

    def __post_init__(self) -> None:
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff values must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.remap_time < 0:
            raise ValueError(f"remap_time negative: {self.remap_time}")
        if self.max_verify_retries < 0:
            raise ValueError(
                f"max_verify_retries negative: {self.max_verify_retries}"
            )

    def delay_at(self, depth: int) -> float:
        """Backoff before re-probing at split ``depth`` (bounded)."""
        return min(self.backoff * self.backoff_factor**depth, self.max_backoff)


@dataclass
class RemediationStats:
    """Counters one scrubber accumulates across remediations."""

    split_verifies: int = 0
    sectors_remapped: int = 0
    remap_failures: int = 0
    #: LBNs this scrubber remapped, in remediation order.
    remapped_lbns: list = field(default_factory=list)


def remediate_extent(
    sim,
    device,
    lbn: int,
    sectors: int,
    policy: RemediationPolicy,
    submit_verify: Callable,
    stats: RemediationStats,
):
    """Process generator: localise and repair bad sectors in an extent.

    ``submit_verify(lbn, sectors)`` must submit a scrub ``VERIFY`` and
    return its completion event (the scrubber passes its ``_verify``).  The caller invokes this with ``yield from`` after
    a top-level scrub verify came back ``MEDIUM_ERROR``.
    """
    sink = sim.telemetry
    # Depth-first in LBN order: (lbn, sectors, depth, known_bad); the
    # right half is pushed first so the left half pops first.  The
    # caller's failing verify already condemned the initial extent, so
    # it enters with ``known_bad=True`` and is split without re-probing.
    pending = [(lbn, sectors, 0, True)]
    while pending:
        lbn, sectors, depth, known_bad = pending.pop()
        if not known_bad:
            if policy.delay_at(depth) > 0:
                yield sim.timeout(policy.delay_at(depth))
            request = yield submit_verify(lbn, sectors)
            stats.split_verifies += 1
            if sink is not None:
                sink.fault_event(
                    sim.now,
                    "split_verify",
                    lbn,
                    sectors=sectors,
                    depth=depth,
                    bad=request.breakdown.status is CommandStatus.MEDIUM_ERROR,
                )
            if request.breakdown.status is not CommandStatus.MEDIUM_ERROR:
                continue  # clean (or cache-masked — the drive cannot tell)
        if sectors == 1:
            yield from _remap_sector(
                sim, device, lbn, policy, submit_verify, stats
            )
            continue
        half = sectors // 2
        pending.append((lbn + half, sectors - half, depth + 1, False))
        pending.append((lbn, half, depth + 1, False))


def _remap_sector(sim, device, lbn, policy, submit_verify, stats):
    """Reallocate one sector, then verify the remap took."""
    faults = device.drive.faults
    sink = sim.telemetry
    if policy.remap_time > 0:
        yield sim.timeout(policy.remap_time)
    if faults is None or not faults.reallocate(lbn, sim.now):
        stats.remap_failures += 1
        if sink is not None:
            sink.fault_event(sim.now, "remap_failed", lbn)
        return
    if sink is not None:
        sink.fault_event(sim.now, "remap", lbn)
    if not policy.verify_after_remap:
        stats.sectors_remapped += 1
        stats.remapped_lbns.append(lbn)
        return
    for attempt in range(policy.max_verify_retries + 1):
        request = yield submit_verify(lbn, 1)
        stats.split_verifies += 1
        ok = request.breakdown.status is not CommandStatus.MEDIUM_ERROR
        faults.log.record_verify_after_remap(sim.now, lbn, ok=ok)
        if sink is not None:
            sink.fault_event(
                sim.now, "verify_after_remap", lbn, ok=ok, attempt=attempt
            )
        if ok:
            stats.sectors_remapped += 1
            stats.remapped_lbns.append(lbn)
            return
        if attempt < policy.max_verify_retries:
            yield sim.timeout(policy.delay_at(attempt))
    stats.remap_failures += 1
