"""Golden catalog search: the halving search's answers, pinned by digest.

``make search-golden`` runs this.  For every catalog trace at 600 s,
each seed asked for and the slowdown goals 2 ms and 0.5 ms, it runs
:class:`~repro.core.search.SuccessiveHalvingSearch` serially on the
ultrastar service model and hashes ``repr((best, rungs, sims,
interval_evals))`` of the outcome: the chosen parameters, every rung's
report and the effort meter, floats by their shortest round-trip
``repr``.  Every seed runs twice: as the search runs, and with
:func:`undecided` standing in for ``core.optimizer._certify``, so that
every rung step takes the exact path (``_meets``) instead of a
certified prefix-sum estimate.  It exits 1 when any digest of either
run differs from ``tests/fixtures/search_golden.json``, which was
recorded before the rungs decided their steps from prefix sums, for
seeds 3, 7 and 11.  The fixture pins the search's answers: a change
that moves them is a change of behaviour to explain, not a fixture to
re-record.

``tests/test_search.py::TestGoldenCatalogSearch`` checks seed 7 both
ways through :func:`digests` in tier-1.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "search_golden.json")

DURATION = 600.0
GOALS = (0.002, 0.0005)
SEEDS = (3, 7, 11)


def key(name: str, seed: int, goal: float) -> str:
    return f"{name} seed={seed} goal={goal!r}"


def undecided(sums, lengths, spread, slowdown_goal, total_requests):
    """``_certify`` deciding nothing: every arm takes the exact path."""
    import numpy as np

    nothing = np.zeros(len(sums), dtype=bool)
    return nothing, nothing.copy()


def digests(seeds: Iterable[int]) -> Dict[str, str]:
    """``{key: sha256}`` of every catalog search for ``seeds``."""
    from repro.analysis.service_model import ScrubServiceModel
    from repro.core.search import SuccessiveHalvingSearch
    from repro.disk.models import PRESETS
    from repro.traces import generate_trace
    from repro.traces.catalog import CATALOG, trace_idle_intervals

    model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
    out = {}
    for seed in seeds:
        for name in sorted(CATALOG):
            trace = generate_trace(name, duration=DURATION, seed=seed)
            _, durations = trace_idle_intervals(name, trace)
            search = SuccessiveHalvingSearch(
                durations, len(trace), trace.duration, model
            )
            for goal in GOALS:
                outcome = search.search(goal)
                text = repr((
                    outcome.best, outcome.rungs, outcome.sims,
                    outcome.interval_evals,
                ))
                out[key(name, seed, goal)] = hashlib.sha256(
                    text.encode()
                ).hexdigest()
    return out


def load_fixture() -> Dict[str, str]:
    with open(FIXTURE) as handle:
        return json.load(handle)


def main() -> int:
    from repro.core import optimizer

    expected = load_fixture()
    failed = False
    certify = optimizer._certify
    for steps, stand_in in (("certified", certify), ("exact", undecided)):
        optimizer._certify = stand_in
        try:
            actual = digests(SEEDS)
        finally:
            optimizer._certify = certify
        bad = [k for k in actual if expected.get(k) != actual[k]]
        for k in bad:
            print(f"  {k}: {actual[k][:16]}… expected {str(expected.get(k))[:16]}…")
        failed |= bool(bad)
        print(f"search golden [{'FAIL' if bad else 'OK'}]: "
              f"{len(actual) - len(bad)}/{len(actual)} searches match the "
              f"recorded digests ({steps} steps)")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
