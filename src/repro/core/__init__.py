"""The paper's primary contribution: scrubbers and scrub scheduling.

* :class:`~repro.core.scrubber.Scrubber` — the scrubbing framework
  (Section III-C): a per-device background process that walks the disk
  with ``VERIFY`` requests according to a pluggable
  :class:`~repro.core.scrubber.ScrubAlgorithm`, in either kernel style
  (requests disguised as reads, participating in scheduling) or user
  style (soft-barrier pass-through).
* :class:`~repro.core.sequential.SequentialScrub` and
  :class:`~repro.core.staggered.StaggeredScrub` — the two scrub orders
  compared in Section IV.
* :mod:`repro.core.policies` — the Section V scheduling policies
  (Waiting, Auto-Regression, AR+Waiting, Oracle, CFQ-gate baseline).
* :mod:`repro.core.adaptive` — adaptive request-size strategies
  (fixed, exponential, linear, swapping; Section V-C).
* :class:`~repro.core.optimizer.ScrubParameterOptimizer` — finds the
  (request size, wait threshold) pair maximising scrub throughput under
  a mean-slowdown goal (Section V-C/D, Table III).
* :mod:`repro.core.mlet` — latent-sector-error model and Mean Latent
  Error Time analysis (the motivation from Oprea & Juels for staggered
  scrubbing).
"""

from repro.core.scrubber import ScrubAlgorithm, Scrubber
from repro.core.search import (
    SearchOutcome,
    SuccessiveHalvingSearch,
)
from repro.core.sequential import SequentialScrub
from repro.core.staggered import StaggeredScrub

__all__ = [
    "ScrubAlgorithm",
    "Scrubber",
    "SearchOutcome",
    "SequentialScrub",
    "StaggeredScrub",
    "SuccessiveHalvingSearch",
]
