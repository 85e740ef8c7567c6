"""Differential check: successive-halving search vs exhaustive grid.

The search is a *pruning* optimisation: it may only skip work the
exhaustive grid would have wasted, never change the answer materially.
The contract, checked per workload:

* the searched parameters' **achieved slowdown meets the goal**
  exactly (the final rung simulates them on the full idle sample — no
  tolerance here);
* the searched parameters' **throughput is within ``tolerance``**
  (default 1%, relative) of the exhaustive grid's optimum — the slack
  admits a subsample mis-ranking two near-tied sizes, nothing more;
* with the default schedule the chosen parameters are *identical* to
  the grid's on seeded catalog workloads (asserted by
  ``tests/test_search.py``; the tolerance is the documented contract,
  the identity is the observed reality).

A violation raises
:class:`~repro.verify.differential.DifferentialMismatch` with
``axis="search"``, keeping the reporting/fuzzing machinery uniform.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER
from repro.core.optimizer import (
    DEFAULT_MAX_SLOWDOWN,
    ScrubParameterOptimizer,
)
from repro.core.search import SuccessiveHalvingSearch
from repro.verify.differential import DifferentialMismatch

#: Relative throughput slack the searched optimum is allowed vs the grid.
DEFAULT_SEARCH_TOLERANCE = 0.01


def check_search_vs_grid(
    durations: np.ndarray,
    total_requests: int,
    span: float,
    service_model: ScrubServiceModel,
    slowdown_goal: float,
    sizes: Optional[Sequence[int]] = None,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    seed: int = 0,
    tolerance: float = DEFAULT_SEARCH_TOLERANCE,
    runner=None,
) -> dict:
    """Run both optimisers and enforce the search safety contract.

    Returns ``{"grid": OptimalParameters, "search": SearchOutcome,
    "grid_sims": .., "grid_interval_evals": .., "speedup": ..}`` on
    success (the effort numbers are serial-exact; with a ``runner``
    they cover this process only).  Raises
    :class:`DifferentialMismatch` on contract violation; a
    :class:`ValueError` from *both* sides (goal unattainable) is not a
    mismatch and propagates.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    params = {
        "slowdown_goal": slowdown_goal,
        "seed": seed,
        "idle_samples": int(len(durations)),
        "tolerance": tolerance,
    }
    optimizer = ScrubParameterOptimizer(
        durations, total_requests, span, service_model,
        sizes=sizes, max_slowdown=max_slowdown,
    )
    search = SuccessiveHalvingSearch(
        durations, total_requests, span, service_model,
        sizes=sizes, max_slowdown=max_slowdown, seed=seed,
    )
    before = SIM_METER.snapshot()
    try:
        grid_best = optimizer.optimize(
            slowdown_goal, runner=runner, prune=False
        ) if runner is None else optimizer.optimize(slowdown_goal, runner=runner)
    except ValueError:
        grid_best = None
    after = SIM_METER.snapshot()
    try:
        outcome = search.search(slowdown_goal, runner=runner)
    except ValueError:
        outcome = None

    if (grid_best is None) != (outcome is None):
        raise DifferentialMismatch(
            "search",
            params,
            "feasibility disagreement: grid "
            f"{'found parameters' if grid_best else 'found none'}, search "
            f"{'found parameters' if outcome else 'found none'}",
        )
    if grid_best is None:
        raise ValueError(
            f"no parameters meet slowdown goal {slowdown_goal}s "
            "for this workload"
        )

    best = outcome.best
    if best.achieved_slowdown > slowdown_goal:
        raise DifferentialMismatch(
            "search",
            params,
            f"searched optimum violates the goal: achieved "
            f"{best.achieved_slowdown!r} > goal {slowdown_goal!r}",
        )
    floor = grid_best.throughput * (1.0 - tolerance)
    if best.throughput < floor:
        raise DifferentialMismatch(
            "search",
            params,
            "searched throughput outside tolerance: "
            f"{best.throughput!r} < {floor!r} "
            f"(grid chose {grid_best.request_bytes} B @ "
            f"{grid_best.threshold!r}s = {grid_best.throughput!r} B/s; "
            f"search chose {best.request_bytes} B @ "
            f"{best.threshold!r}s = {best.throughput!r} B/s)",
        )
    grid_sims = after["sims"] - before["sims"]
    grid_evals = after["interval_evals"] - before["interval_evals"]
    return {
        "grid": grid_best,
        "search": outcome,
        "grid_sims": grid_sims,
        "grid_interval_evals": grid_evals,
        "speedup": (
            grid_evals / outcome.interval_evals
            if outcome.interval_evals else float("inf")
        ),
    }
