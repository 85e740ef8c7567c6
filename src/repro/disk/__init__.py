"""Mechanical hard-disk model.

This package is the hardware substrate for the reproduction: the paper
measured real SAS/SATA drives, which we replace with an explicit
mechanical model.  The model is deliberately *mechanistic* rather than
curve-fitted: every effect the paper observes falls out of geometry,
seek, rotation and cache behaviour:

* flat ``VERIFY`` service times below ~64 KB (rotation + seek dominate
  transfer — Fig. 4);
* the full-rotation penalty for back-to-back sequential ``VERIFY``
  (completion propagation lets the target sector slip past the head —
  the root cause of staggered scrubbing's surprising win, Fig. 5);
* the ATA ``VERIFY`` cache bug (served from the on-disk cache instead of
  the medium — Fig. 1).

Public surface:

* :class:`~repro.disk.geometry.DiskGeometry` — zoned LBN-to-physical mapping
* :class:`~repro.disk.mechanics.SeekModel` / :class:`~repro.disk.mechanics.RotationModel`
* :class:`~repro.disk.cache.DiskCache` — segmented streaming read cache
* :class:`~repro.disk.drive.Drive` — command service model
* :mod:`repro.disk.models` — parameter presets for the paper's drives
"""

from repro import _lazy

_EXPORTS = {
    "CommandStatus": ".commands",
    "DiskCache": ".cache",
    "DiskCommand": ".commands",
    "DiskGeometry": ".geometry",
    "Drive": ".drive",
    "DriveSpec": ".models",
    "Interface": ".commands",
    "Location": ".geometry",
    "Opcode": ".commands",
    "RotationModel": ".mechanics",
    "SeekModel": ".mechanics",
    "ServiceBreakdown": ".drive",
    "Zone": ".geometry",
    "fujitsu_map3367np": ".models",
    "fujitsu_max3073rc": ".models",
    "hitachi_deskstar_7k1000": ".models",
    "hitachi_ultrastar_15k450": ".models",
    "wd_caviar_blue": ".models",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
