"""Latent-sector-error fault injection and the error lifecycle.

The paper's premise is that scrubbing exists to find latent sector
errors (LSEs) before foreground I/O does.  This package supplies the
errors: seeded, deterministic fault *plans* (:mod:`repro.faults.plan`),
live per-drive bad-sector state with a spare pool
(:mod:`repro.faults.state`), a structured lifecycle log
(:mod:`repro.faults.log`), and the scrub-side split/remap/verify
remediation machinery (:mod:`repro.faults.remediation`).

Install faults into a drive and every ``READ``/``VERIFY``/``WRITE``
that touches a bad extent on the medium fails with ``MEDIUM_ERROR`` —
except when the ATA firmware bug serves ``VERIFY`` from the cache, in
which case the error is silently missed and logged as ``CACHE_MASKED``
(the robustness payoff of paper Fig. 1).

Quickstart::

    from repro.disk import Drive, hitachi_ultrastar_15k450
    from repro.faults import ClusteredBurstFaultModel, MediaFaults

    spec = hitachi_ultrastar_15k450()
    drive = Drive(spec)
    plan = ClusteredBurstFaultModel().generate(
        drive.total_sectors, horizon=3600.0, seed=7
    )
    drive.install_faults(MediaFaults(plan))
"""

from repro import _lazy

_EXPORTS = {
    "MODELS": ".plan",
    "BernoulliFaultModel": ".plan",
    "ClusteredBurstFaultModel": ".plan",
    "ErrorEventKind": ".log",
    "ErrorLog": ".log",
    "ErrorRecord": ".log",
    "FaultPlan": ".plan",
    "MediaFaults": ".state",
    "RemediationPolicy": ".remediation",
    "RemediationStats": ".remediation",
    "SectorError": ".plan",
    "build_model": ".plan",
    "remediate_extent": ".remediation",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
