"""Finding the optimal (request size, wait threshold) pair (Section V-C/D).

The administrator specifies two numbers: the *average* and the
*maximum* tolerable slowdown per foreground request.  The optimizer
then, exactly as the paper describes:

1. caps the candidate request sizes at the largest whose service time
   fits the maximum slowdown;
2. for each candidate size, binary-searches the smallest wait
   threshold whose simulated mean slowdown still meets the average
   goal ("for a given request size, larger thresholds will always lead
   to smaller slowdowns");
3. picks the (size, threshold) pair with the highest scrub throughput.

Everything runs on the vectorised Waiting simulation, so a full
optimisation over a 64-size grid on a 100k-interval trace takes well
under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import (
    SIM_METER, SlowdownResult, _fixed_result, _waiting_arrays,
    fixed_waiting_pass,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import SweepRunner

#: The paper's maximum-tolerable-slowdown default (50.4 ms — the value
#: that caps request sizes at 4 MB on its SAS drive).
DEFAULT_MAX_SLOWDOWN = 0.0504


@dataclass(frozen=True)
class OptimalParameters:
    """Optimiser output for one slowdown goal."""

    slowdown_goal: float
    threshold: float
    request_bytes: int
    throughput: float
    achieved_slowdown: float

    @property
    def throughput_mbps(self) -> float:
        return self.throughput / 1e6


def _rank(size: int, result: SlowdownResult) -> Tuple[float, int]:
    """Sort key of a candidate: throughput descending, then size ascending."""
    return (-result.throughput, size)


def _pick_best(
    slowdown_goal: float,
    candidates: Iterable[Tuple[int, Optional[SlowdownResult]]],
) -> OptimalParameters:
    """The winner among ``(size, threshold-search result)`` pairs.

    The one tie-break rule of every tuning entry point: highest scrub
    throughput, an exact tie going to the smaller request size; a
    ``None`` result marks a size whose threshold search found none
    meeting the goal, which only a substituted pass produces (see
    :meth:`ScrubParameterOptimizer.best_threshold`).  Raises
    :class:`ValueError` when no size meets it.
    """
    feasible = [(size, result) for size, result in candidates if result is not None]
    if not feasible:
        raise ValueError(
            f"no parameters meet slowdown goal {slowdown_goal}s for this workload"
        )
    size, result = min(feasible, key=lambda pair: _rank(*pair))
    return OptimalParameters(
        slowdown_goal=slowdown_goal,
        threshold=result.threshold,
        request_bytes=size,
        throughput=result.throughput,
        achieved_slowdown=result.mean_slowdown,
    )


class ScrubParameterOptimizer:
    """Optimises Waiting-policy parameters for one workload.

    Parameters
    ----------
    durations:
        The workload's idle interval durations (from a short
        representative trace — the paper recommends one capturing the
        workload's periodicity).
    total_requests:
        Foreground request count over the same window.
    span:
        Window length in seconds.
    service_model:
        Scrub service times for the target drive.
    sizes:
        Candidate request sizes; default 64 KB .. 4 MB in 64 KB steps.
    max_slowdown:
        Maximum tolerable per-request slowdown (caps request size).
    """

    def __init__(
        self,
        durations: np.ndarray,
        total_requests: int,
        span: float,
        service_model: ScrubServiceModel,
        sizes: Optional[Sequence[int]] = None,
        max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    ) -> None:
        self.durations = np.asarray(durations, dtype=float)
        if len(self.durations) == 0:
            raise ValueError("empty idle sample")
        if total_requests <= 0 or span <= 0:
            raise ValueError("total_requests and span must be positive")
        self.total_requests = total_requests
        self.span = span
        self.service_model = service_model
        if sizes is None:
            sizes = [k * 64 * 1024 for k in range(1, 65)]  # 64 KB .. 4 MB
        self.sizes = sorted(int(s) for s in sizes)
        if not self.sizes:
            raise ValueError("no candidate sizes")
        self.max_slowdown = max_slowdown

    # -- pieces ------------------------------------------------------------------
    def admissible_sizes(self) -> Sequence[int]:
        """Candidate sizes whose service time fits the max slowdown."""
        limit = self.service_model.max_size_for_slowdown(self.max_slowdown)
        admissible = [s for s in self.sizes if s <= limit]
        if not admissible:
            raise ValueError(
                f"no candidate size fits max_slowdown={self.max_slowdown}"
            )
        return admissible

    def simulate(self, threshold: float, request_bytes: int) -> SlowdownResult:
        service = float(self.service_model.time(float(request_bytes)))
        return self._pass(self.durations, threshold, request_bytes, service)

    def _pass(
        self, work: np.ndarray, threshold: float, request_bytes: int, service: float
    ) -> SlowdownResult:
        """One simulation of the full sample, computed from ``work``."""
        return fixed_waiting_pass(
            work,
            len(self.durations),
            threshold,
            request_bytes,
            service,
            self.total_requests,
            self.span,
        )

    def best_threshold(
        self,
        request_bytes: int,
        slowdown_goal: float,
        iterations: int = 40,
        at_zero: Optional[SlowdownResult] = None,
    ) -> Optional[SlowdownResult]:
        """Smallest threshold meeting ``slowdown_goal`` for one size.

        The one-size call of :meth:`_best_thresholds`, whose docstring
        says how the bisection runs.  Pass ``at_zero`` (the threshold-0
        result) when already computed.  ``None`` means the threshold-max
        pass missed the goal; the real pass cannot, because at the
        longest interval nothing is usable, so its mean slowdown is 0
        and any positive goal is met.  Only a substituted pass reaches
        ``None``.
        """
        return self._best_thresholds(
            [request_bytes], slowdown_goal, iterations, [at_zero]
        )[0]

    def _best_thresholds(
        self,
        sizes: Sequence[int],
        slowdown_goal: float,
        iterations: int,
        at_zero: Sequence[Optional[SlowdownResult]],
    ) -> List[Optional[SlowdownResult]]:
        """:meth:`best_threshold` for each of ``sizes``, bisected in lockstep.

        Per size, first the threshold-0 pass (skipped where ``at_zero``
        holds it) and, unless that meets the goal, the threshold-max
        pass; a size that misses there gets ``None``.  Several sizes at
        once (a halving rung) only decide the threshold-0 pass, with one
        :func:`~repro.analysis.slowdown._waiting_arrays` call over the
        sample's positive intervals, and build its result only when it
        meets the goal; they do not run the threshold-max pass at all,
        whose mean slowdown is exactly 0 (nothing is usable past the
        longest interval).  Both passes are metered as run.  The sizes
        left then bisect together, ``iterations`` steps, each with its
        own ``lo``, ``hi`` and working set that only shrinks: a rejected
        midpoint becomes ``lo``, every later threshold is ``>= lo``, so
        an interval no longer than ``lo`` can never be usable again and
        is dropped (order kept).  A step cuts each size's intervals
        longer than its midpoint, runs the Waiting arithmetic once over
        their concatenation, with a per-element midpoint and service
        time, and reads each size's mean slowdown as one
        ``np.add.reduce`` over its own slice -- the reduction a whole
        pass makes, so the sums agree bit for bit, which
        ``np.add.reduceat`` does not.  A size keeps the intervals of its
        last accepted step (at first none: the threshold-max pass's) and
        builds its one :class:`SlowdownResult` from them at the end, so
        no step's shared arrays stay pinned; the one-size call keeps its
        step arrays as they are and its threshold-max result.  Each
        step's answer is bit-identical to simulating the whole sample,
        and is metered as that.
        """
        if slowdown_goal <= 0:
            raise ValueError(f"slowdown_goal must be positive: {slowdown_goal}")
        durations, total_requests = self.durations, self.total_requests
        top, sample = float(durations.max()), len(durations)
        lone = len(sizes) == 1
        reduce = np.add.reduce
        positive = None if lone else durations[durations > 0.0]
        # One lookup for every size: np.interp gives each element the
        # bits a lookup of that size alone would.
        lookup = self.service_model.time(np.asarray(sizes, dtype=float)).tolist()
        results: List[Optional[SlowdownResult]] = []
        arms, services, accepted = [], [], []  # of each size that bisects
        for size, zero, service in zip(sizes, at_zero, lookup):
            if lone or zero is not None:
                if zero is None:
                    zero = self._pass(durations, 0.0, size, service)
                met = zero.mean_slowdown <= slowdown_goal
            else:  # decide the threshold-0 pass, build its result if kept
                SIM_METER.sims += 1
                SIM_METER.interval_evals += sample
                arrays = _waiting_arrays(positive.copy(), service)
                met = reduce(arrays[0]) / total_requests <= slowdown_goal
                if met:
                    zero = _fixed_result(0.0, size, arrays, total_requests, self.span)
            if met:
                results.append(zero)
                continue
            if lone:
                best = self._pass(durations, top, size, service)
                if best.mean_slowdown > slowdown_goal:
                    results.append(None)
                    continue
                accepted.append(None)
            else:  # the threshold-max pass, metered but not run
                SIM_METER.sims += 1
                SIM_METER.interval_evals += sample
                best = None
                accepted.append(durations[:0])
            arms.append((len(results), size))
            services.append(service)
            results.append(best)
        n = len(arms)
        lo, hi = [0.0] * n, [top] * n
        work, mids = [durations] * n, [0.0] * n
        evals, per_arm = n * sample, np.array(services)
        for _ in range(iterations if n else 0):
            SIM_METER.sims += n
            SIM_METER.interval_evals += evals
            kept = []
            for arm in range(n):
                mid = mids[arm] = (lo[arm] + hi[arm]) / 2.0
                w = work[arm]
                kept.append(w[w > mid])
            # The one-size call (every best_threshold call, the final
            # rung's among them) skips the concatenation and keeps its
            # own arrays.
            if lone:
                arrays = _waiting_arrays(kept[0] - mid, services[0])
                if reduce(arrays[0]) / total_requests <= slowdown_goal:
                    hi[0], accepted[0] = mid, arrays
                else:
                    lo[0], work[0] = mid, kept[0]
                continue
            lengths = [len(k) for k in kept]
            usable = np.concatenate(kept)
            usable -= np.array(mids).repeat(lengths)
            delays = _waiting_arrays(usable, per_arm.repeat(lengths))[0]
            end = 0
            for arm in range(n):
                start = end
                end += lengths[arm]
                if reduce(delays[start:end]) / total_requests <= slowdown_goal:
                    hi[arm], accepted[arm] = mids[arm], kept[arm]
                else:
                    lo[arm], work[arm] = mids[arm], kept[arm]
        for arm, (index, size) in enumerate(arms):
            if accepted[arm] is None:
                continue  # one size, never accepted: its threshold-max result stands
            arrays = accepted[arm] if lone else _waiting_arrays(
                accepted[arm] - hi[arm], services[arm]
            )
            results[index] = _fixed_result(
                hi[arm], size, arrays, total_requests, self.span
            )
        return results

    # -- the headline call ----------------------------------------------------------
    def optimize(
        self,
        slowdown_goal: float,
        runner: Optional["SweepRunner"] = None,
        prune: bool = True,
    ) -> OptimalParameters:
        """Maximise scrub throughput subject to the mean-slowdown goal.

        With a :class:`~repro.parallel.SweepRunner` the per-size
        threshold searches fan out as independent (cacheable) tasks;
        serially, sizes are explored best-upper-bound first and any
        size whose threshold-0 throughput (its ceiling — throughput is
        non-increasing in the threshold) cannot outrank the incumbent
        is pruned without a search.  ``prune=False`` disables the
        domination skip, making the serial path the true exhaustive
        grid — what the successive-halving benchmark and differential
        check compare against.  Pruning is exact (the ceiling argument
        above, applied to the full :func:`_pick_best` order), so all
        three ways of calling this return identical parameters, exact
        throughput ties included.
        """
        if runner is not None:
            return self._optimize_with_runner(slowdown_goal, runner)
        sizes = self.admissible_sizes()
        # One vectorised sim per size: the threshold-0 upper bound.
        ceiling = {size: self.simulate(0.0, size) for size in sizes}
        ranked = sorted(sizes, key=lambda s: ceiling[s].throughput, reverse=True)
        searched = []
        incumbent = (math.inf, 0)  # the best _rank among the sizes searched
        for size in ranked:
            if prune and _rank(size, ceiling[size]) > incumbent:
                continue  # dominated: ranks below the incumbent at any threshold
            result = self.best_threshold(
                size, slowdown_goal, at_zero=ceiling[size]
            )
            searched.append((size, result))
            if result is not None:
                incumbent = min(incumbent, _rank(size, result))
        return _pick_best(slowdown_goal, searched)

    def _optimize_with_runner(
        self, slowdown_goal: float, runner: "SweepRunner"
    ) -> OptimalParameters:
        """Fan the per-size threshold searches across a sweep runner."""
        sizes = list(self.admissible_sizes())
        tasks = [
            dict(
                durations=self.durations,
                total_requests=self.total_requests,
                span=self.span,
                service_model=self.service_model,
                request_bytes=size,
                slowdown_goal=slowdown_goal,
                max_slowdown=self.max_slowdown,
            )
            for size in sizes
        ]
        results = runner.map(_best_threshold_task, tasks)
        return _pick_best(slowdown_goal, zip(sizes, results))


def _best_threshold_task(
    durations: np.ndarray,
    total_requests: int,
    span: float,
    service_model: ScrubServiceModel,
    request_bytes: int,
    slowdown_goal: float,
    max_slowdown: float,
    iterations: int = 40,
) -> Optional[SlowdownResult]:
    """One size's threshold search as a picklable, cacheable sweep task."""
    optimizer = ScrubParameterOptimizer(
        durations,
        total_requests,
        span,
        service_model,
        sizes=[request_bytes],
        max_slowdown=max_slowdown,
    )
    return optimizer.best_threshold(
        request_bytes, slowdown_goal, iterations=iterations
    )
