"""Successive-halving search for Waiting-policy parameters.

The Table III tuning question — which (request size, wait threshold)
pair maximises scrub throughput under a mean-slowdown goal — is an
optimisation over ~64 candidate sizes, each needing a threshold
bisection of ~40 full-trace simulations.  The exhaustive grid spends
that effort uniformly; at corpus scale almost all of it goes to sizes
that a glance at a small idle-interval subsample already rules out.

:class:`SuccessiveHalvingSearch` spends simulation effort where the
optimum might be instead:

* **Rungs of increasing trace-horizon budget.**  Rung ``r`` evaluates
  the surviving sizes on a seeded stratified subsample of the idle
  durations (fractions 1/64, 1/16, 1/4 of the full sample) with a
  short bisection, scores each size by its achieved scrub throughput,
  and keeps the top third.
* **Seeded rung assignment.**  Subsamples come from
  ``numpy.random.default_rng([seed, rung])``, so a search is a pure
  function of ``(inputs, seed)`` — reruns are bit-identical.
* **Deterministic tie-breaking.**  Ranking sorts by (throughput
  descending, size ascending); infeasible sizes rank last.
* **Exact final rung.**  The survivors get the grid's own
  full-sample 40-iteration search — literally the same
  :func:`~repro.core.optimizer._best_threshold_task` with the same
  task parameters — so the chosen parameters are exact, and when both
  the grid and the search run (e.g. the differential check), the final
  rung is served from the :class:`~repro.parallel.cache.ResultCache`.

Cost: ≈220–340 interval-evaluations per idle interval
against the exhaustive grid's ≈2700 — an 8–12x reduction on the
seeded catalog suite, measured by
:data:`repro.analysis.slowdown.SIM_METER`; ``tests/test_search.py``
holds it at ≥5x the grid's effort and pins the effort of two catalog
days as literals.  The meter counts questions, not work: an
elimination rung answers those of intervals with less than half a
service time past the threshold from prefix sums of its
duration-ordered subsample
(:meth:`~repro.core.optimizer.ScrubParameterOptimizer._rung_scores`),
so the Waiting arithmetic sees a fraction of the evaluations it is
charged: 0.2% on the dense 600 s TPCdisk66 day, 7–26% on the sparser
MSR and HP days, whose long intervals fit several requests.  The
safety contract is :func:`repro.verify.search.check_search_vs_grid`:
on the seeded suite the searched optimum's throughput must be within
a documented tolerance (default 1%) of the exhaustive grid's, with
the slowdown goal still met exactly (the final rung simulates on the
full sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER
from repro.core.optimizer import (
    DEFAULT_MAX_SLOWDOWN,
    OptimalParameters,
    ScrubParameterOptimizer,
    _best_threshold_task,
    _pick_best,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import SweepRunner

#: Subsample fractions for the elimination rungs (final rung is always
#: the full sample).
RUNG_FRACTIONS = (1 / 64, 1 / 16, 1 / 4)

#: Never subsample below this many idle intervals.  Because the rung
#: subsample is stratified over the duration-sorted order (every
#: quantile represented in proportion — see :meth:`_rung_sample`), a
#: modest floor suffices: 512 stratified intervals rank the true
#: optimum into the survivor set on every seeded catalog workload.
MIN_RUNG_SAMPLE = 512

#: Bisection iterations at elimination rungs (the final rung uses the
#: grid's 40).  This must stay deep enough to resolve the threshold: a
#: coarse bisection leaves an overshoot proportional to
#: ``max_duration * 2**-k`` that systematically penalises
#: threshold-sensitive large sizes and mis-ranks them out of the
#: survivor set.  20 iterations resolve the threshold to ~1e-6 of the
#: longest idle interval, which keeps every seeded catalog workload
#: within tolerance.
RUNG_ITERATIONS = 20


@dataclass(frozen=True)
class RungReport:
    """What one elimination rung did (for reports and benchmarks)."""

    index: int
    sample: int
    iterations: int
    arms: Tuple[int, ...]
    survivors: Tuple[int, ...]
    sims: int
    interval_evals: int


@dataclass(frozen=True)
class SearchOutcome:
    """Search result plus its effort accounting.

    ``sims``/``interval_evals`` are :data:`SIM_METER` deltas observed
    in *this* process — exact for serial searches; with a runner the
    final rung's work happens in workers (or not at all, on cache
    hits) and is not included.
    """

    best: OptimalParameters
    seed: int
    rungs: Tuple[RungReport, ...]
    sims: int
    interval_evals: int


class SuccessiveHalvingSearch:
    """Budgeted replacement for the exhaustive Table III grid.

    Constructor parameters mirror
    :class:`~repro.core.optimizer.ScrubParameterOptimizer` (same idle
    sample, same candidate sizes, same admissibility cap), plus:

    Parameters
    ----------
    seed:
        Root seed for the rung subsamples; the search is a pure
        function of its inputs and this seed.
    keep_min:
        Never eliminate below this many arms before the final rung —
        the safety margin that lets a subsample mis-rank the true
        optimum without losing it.
    """

    def __init__(
        self,
        durations: np.ndarray,
        total_requests: int,
        span: float,
        service_model: ScrubServiceModel,
        sizes: Optional[Sequence[int]] = None,
        max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
        seed: int = 0,
        keep_min: int = 3,
    ) -> None:
        self._full = ScrubParameterOptimizer(
            durations, total_requests, span, service_model,
            sizes=sizes, max_slowdown=max_slowdown,
        )
        if keep_min < 1:
            raise ValueError(f"keep_min must be >= 1: {keep_min}")
        self.seed = int(seed)
        self.keep_min = keep_min

    # -- rungs -------------------------------------------------------------------
    @cached_property
    def _sorted(self) -> np.ndarray:
        """The full sample sorted ascending, computed once.

        Every rung of every goal strides the same sorted array: a
        subsample depends on the seed, the rung and its fraction, not on
        the goal.  Equal durations are equal floats, so the values at
        any ranks are those of the stable index order, bit for bit.
        """
        return np.sort(self._full.durations)

    def _rung_sample(self, rung: int, fraction: float) -> np.ndarray:
        """The seeded idle-duration subsample for one rung, sorted
        ascending.

        Stratified, not uniform: positions stride the *duration-sorted*
        sample at a seeded offset, so every quantile of the idle
        distribution — the long tail above all — is represented in
        proportion.  An arm's throughput is an integral over that
        distribution (large request sizes live almost entirely in the
        few longest intervals), so a uniform draw that misses a couple
        of tail intervals mis-ranks big arms wholesale; a stratified
        draw cannot.  The seed only moves the stride offset, keeping
        reruns bit-identical and distinct seeds honestly different.
        """
        ordered = self._sorted
        n = len(ordered)
        m = min(n, max(MIN_RUNG_SAMPLE, math.ceil(n * fraction)))
        if m >= n:
            return ordered
        rng = np.random.default_rng([self.seed, rung])
        # m evenly spaced positions in [0, n), phase-shifted by the
        # seed.  An offset of 1 - 2**-53 rounds (m - 1) + offset up to
        # m, whose position is n: clip it back into range.
        offset = float(rng.random())
        positions = ((np.arange(m) + offset) * (n / m)).astype(np.intp)
        return ordered[np.minimum(positions, n - 1)]

    def _run_rung(
        self,
        rung: int,
        fraction: float,
        arms: Sequence[int],
        slowdown_goal: float,
    ) -> RungReport:
        # The rung's own sample is in duration order: it is both the
        # optimizer's sample (its passes sum in that order) and the
        # sorted array the lockstep steps read.
        sample = self._rung_sample(rung, fraction)
        full = self._full
        scale = len(sample) / len(full.durations)
        rung_opt = ScrubParameterOptimizer(
            sample,
            total_requests=max(1, round(full.total_requests * scale)),
            span=full.span * scale,
            service_model=full.service_model,
            sizes=arms,
            max_slowdown=full.max_slowdown,
        )
        before = SIM_METER.snapshot()
        scores = rung_opt._rung_scores(arms, slowdown_goal, RUNG_ITERATIONS, sample)
        after = SIM_METER.snapshot()
        throughput: Dict[int, float] = {
            size: score for size, (_, score) in zip(arms, scores)
        }
        ranked = sorted(arms, key=lambda s: (-throughput[s], s))
        if len(set(throughput.values())) <= 1:
            # The rung produced no signal (e.g. an extreme goal drives
            # every arm's subsample throughput to the same value):
            # eliminating on the tie-break alone would be arbitrary, so
            # keep every arm and let a bigger budget discriminate.
            keep = len(arms)
        else:
            keep = min(len(arms), max(self.keep_min, math.ceil(len(arms) / 3)))
        return RungReport(
            index=rung,
            sample=len(sample),
            iterations=RUNG_ITERATIONS,
            arms=tuple(arms),
            survivors=tuple(sorted(ranked[:keep])),
            sims=after["sims"] - before["sims"],
            interval_evals=after["interval_evals"] - before["interval_evals"],
        )

    # -- the headline call -------------------------------------------------------
    def search(
        self, slowdown_goal: float, runner: Optional["SweepRunner"] = None
    ) -> SearchOutcome:
        """Maximise scrub throughput subject to the mean-slowdown goal.

        Same contract as
        :meth:`~repro.core.optimizer.ScrubParameterOptimizer.optimize`
        (raises :class:`ValueError` when no size can meet the goal),
        but spends a fraction of its simulation budget.  With a
        ``runner`` the final rung fans out — and cache-shares — the
        grid's own per-size tasks.
        """
        start = SIM_METER.snapshot()
        arms = list(self._full.admissible_sizes())
        rungs = []
        for rung, fraction in enumerate(RUNG_FRACTIONS):
            if len(arms) <= self.keep_min:
                break
            report = self._run_rung(rung, fraction, arms, slowdown_goal)
            rungs.append(report)
            arms = list(report.survivors)
        best = self._final_rung(arms, slowdown_goal, runner)
        end = SIM_METER.snapshot()
        return SearchOutcome(
            best=best,
            seed=self.seed,
            rungs=tuple(rungs),
            sims=end["sims"] - start["sims"],
            interval_evals=end["interval_evals"] - start["interval_evals"],
        )

    def _final_rung(
        self,
        arms: Sequence[int],
        slowdown_goal: float,
        runner: Optional["SweepRunner"],
    ) -> OptimalParameters:
        """Exact full-sample search over the surviving arms.

        The task parameters are built exactly as
        :meth:`ScrubParameterOptimizer._optimize_with_runner` builds
        them, so the :class:`~repro.parallel.cache.ResultCache` key of
        each survivor's search coincides with the grid's — running the
        grid then the search (or vice versa) pays for the overlap once.
        """
        full = self._full
        sizes = sorted(arms)
        tasks = [
            dict(
                durations=full.durations,
                total_requests=full.total_requests,
                span=full.span,
                service_model=full.service_model,
                request_bytes=size,
                slowdown_goal=slowdown_goal,
                max_slowdown=full.max_slowdown,
            )
            for size in sizes
        ]
        if runner is not None:
            results = runner.map(_best_threshold_task, tasks)
        else:
            results = [_best_threshold_task(**task) for task in tasks]
        return _pick_best(slowdown_goal, zip(sizes, results))
