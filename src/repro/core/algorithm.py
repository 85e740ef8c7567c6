"""The scrub-order interface, apart from the framework that runs it.

:class:`ScrubAlgorithm` is all a scrub order needs: the full-stack
:class:`~repro.core.scrubber.Scrubber` walks one, and so do the MLET
model (:mod:`repro.core.mlet`) and a fleet campaign's latent-window
calibration, which never build a simulation.  Keeping it here lets
those import the two orders without the event kernel, the block layer
and the drive model behind the framework (DESIGN section 17).
"""

from __future__ import annotations

from typing import Optional, Tuple

#: One scrub extent: starting LBN and sector count.
Extent = Tuple[int, int]


class ScrubAlgorithm:
    """Order in which a full disk pass visits its sectors.

    Subclasses implement :meth:`reset` and :meth:`next_extent`; the
    framework calls ``reset`` at the start of every pass.
    """

    def reset(self, total_sectors: int, request_sectors: int) -> None:
        raise NotImplementedError

    def next_extent(self) -> Optional[Extent]:
        """The next extent to verify, or ``None`` when the pass is done."""
        raise NotImplementedError
