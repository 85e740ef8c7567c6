"""RAID substrate: the context that makes scrubbing matter.

The paper's motivation (Section I): latent sector errors are harmless
while redundancy holds, but an LSE *discovered during a RAID rebuild*
— after a disk failure has already consumed the redundancy — loses
data.  Scrubbing shrinks the window between an LSE's occurrence and
its repair (the MLET), and therefore the probability that a rebuild
trips over one.

This package provides:

* :class:`~repro.raid.geometry.RaidGeometry` — logical-to-physical
  striping for RAID-0/1/5;
* :class:`~repro.raid.array.RaidArray` — a simulated array over
  multiple :class:`~repro.sched.device.BlockDevice`\\ s whose drives
  carry the latent errors (:class:`~repro.faults.state.MediaFaults`):
  it repairs what a member's ``MEDIUM_ERROR`` reveals, reads degraded
  and rebuilds;
* :mod:`repro.raid.reliability` — Monte-Carlo estimation of the
  probability a rebuild encounters an unrepaired LSE, as a function of
  the scrub order and rate (connecting the paper's MLET argument to
  data loss).
"""

from repro import _lazy

_EXPORTS = {
    "GroupReliability": ".reliability",
    "HOURS_PER_YEAR": ".units",
    "RaidArray": ".array",
    "RaidGeometry": ".geometry",
    "RaidLevel": ".geometry",
    "RebuildRiskModel": ".reliability",
    "group_reliability": ".reliability",
    "lse_exposure_probability": ".reliability",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
