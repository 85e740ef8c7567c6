"""Deterministic named random streams.

Simulation components that need randomness (workload think times, trace
generators, disk initial rotational phase, ...) must not share a single
RNG: adding a component would shift every other component's draws and
destroy run-to-run comparability.  :class:`RandomStreams` derives an
independent :class:`numpy.random.Generator` per *name* from a single
root seed, so each component sees its own stable stream.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RandomStreams:
    """A family of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RandomStreams` built with the same seed
        yield identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("workload")
    >>> b = streams.get("scrubber")
    >>> a is streams.get("workload")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            root = np.random.SeedSequence(self.seed)
            # Derive a child seed from the stable hash of the name so the
            # stream does not depend on creation order.
            name_digest = [b for b in name.encode("utf-8")]
            child = np.random.SeedSequence(
                entropy=root.entropy, spawn_key=tuple(name_digest)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]
