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


def _certify(
    sums: np.ndarray, lengths: np.ndarray, slowdown_goal: float, total_requests: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(accept, reject)``: where a whole pass certainly meets, or
    certainly misses, the goal, given each arm's sum of its delays.

    A pass meets the goal when ``fl(E / N) <= goal``, ``E`` the pairwise
    ``np.add.reduce``, in sample order, of the arm's ``k = lengths``
    delays and ``N = total_requests``; ``F = sums`` adds the same
    non-negative delays in some other order.

    *Proof.*  Let ``u = 2**-53`` and ``T`` the exact sum.  Any order of
    adding ``k`` non-negative terms, each addition rounded, lies within
    ``γ = (k-1)u / (1-(k-1)u)`` of ``T`` relatively (Higham, *Accuracy
    and Stability of Numerical Algorithms*, §4.2), so ``|F - E| <= 2γT``
    and ``T <= F / (1-γ)``, hence
    ``|F - E| <= 2γ/(1-γ) F = 2(k-1)u / (1-2(k-1)u) F <= 4ku F`` while
    ``(k-1)u <= 1/4``, as for any array in memory.  Let
    ``G = fl(goal N)``, so ``|G - goal N| <= u goal N``; ``s = 4ku`` is
    exact, ``1 + 8u`` and ``1 - 8u`` are floats, and each rounded
    operation below adds a relative error ``<= u``.  *Accept* when
    ``fl(F fl(1+s)) <= fl(G (1-8u))``: then
    ``E <= F(1+s) <= goal N (1+u)**2 (1-8u) / (1-u)**2 < goal N``, so
    ``E/N < goal`` and rounding, monotone, keeps ``fl(E/N) <= goal``.
    *Reject* when ``fl(F fl(1-s)) >= fl(G (1+8u))``: then
    ``E >= F(1-s) >= goal N (1-u)**2 (1+8u) / (1+u)**2 >= goal N (1+2u)``,
    and ``E/N > goal (1+u) >= goal + ulp(goal)/2`` rounds above ``goal``.
    A goal below ``2**-1000`` certifies nothing, which keeps ``goal`` and
    ``G`` normal and an underflowing ``F fl(1+s)`` far below ``G``; an
    infinite ``G`` accepts, rightly, every finite ``F``.
    """
    if not slowdown_goal >= 2.0 ** -1000:
        nothing = np.zeros(len(sums), dtype=bool)
        return nothing, nothing.copy()
    u = 2.0 ** -53
    goal = slowdown_goal * total_requests
    slack = lengths * (4.0 * u)
    accept = sums * (1.0 + slack) <= goal * (1.0 - 8.0 * u)
    reject = sums * (1.0 - slack) >= goal * (1.0 + 8.0 * u)
    return accept, reject


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
        left then bisect ``iterations`` steps, each with its own ``lo``
        and ``hi``.  One size alone keeps a working set that only
        shrinks: a rejected midpoint becomes ``lo``, every later
        threshold is ``>= lo``, so an interval no longer than ``lo`` can
        never be usable again and is dropped (order kept); its step
        reads the mean slowdown as one ``np.add.reduce`` -- the
        reduction a whole pass makes -- and it keeps the arrays of its
        last accepted step, or else its threshold-max result.  Several
        sizes step together on the sorted sample
        (:meth:`_lockstep_highs`) and each builds its one
        :class:`SlowdownResult` at the end from the intervals longer
        than its last accepted midpoint, in sample order: those of that
        step, so no step's shared arrays stay pinned.  Each step's
        decision is the one simulating the whole sample makes, and is
        metered as that, so every answer is bit-identical to it.
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
        arms, services = [], []  # of each size that bisects
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
            else:  # the threshold-max pass, metered but not run
                SIM_METER.sims += 1
                SIM_METER.interval_evals += sample
                best = None
            arms.append((len(results), size))
            services.append(service)
            results.append(best)
        if not arms:
            return results
        if not lone:
            highs = self._lockstep_highs(services, slowdown_goal, iterations)
            for (index, size), hi, service in zip(arms, highs, services):
                usable = durations[durations > hi]
                usable -= hi
                results[index] = _fixed_result(
                    hi, size, _waiting_arrays(usable, service),
                    total_requests, self.span,
                )
            return results
        (index, size), service = arms[0], services[0]
        lo, hi, work, accepted = 0.0, top, durations, None
        for _ in range(iterations):
            SIM_METER.sims += 1
            SIM_METER.interval_evals += sample
            mid = (lo + hi) / 2.0
            kept = work[work > mid]
            arrays = _waiting_arrays(kept - mid, service)
            if reduce(arrays[0]) / total_requests <= slowdown_goal:
                hi, accepted = mid, arrays
            else:
                lo, work = mid, kept
        if accepted is not None:  # else the threshold-max result stands
            results[index] = _fixed_result(
                hi, size, accepted, total_requests, self.span
            )
        return results

    def _lockstep_highs(
        self, services: Sequence[float], slowdown_goal: float, iterations: int
    ) -> List[float]:
        """Each arm's ``hi`` after ``iterations`` bisection steps in lockstep.

        Arm ``a`` (service time ``services[a]``) starts at ``lo = 0`` and
        ``hi`` = the longest interval, and each step accepts its
        midpoint, the new ``hi``, when a whole pass at it meets the
        goal.  The sample is sorted once, so the intervals longer than a
        midpoint are a suffix of it: a step concatenates every arm's
        suffix, subtracts per-element midpoints, runs the Waiting
        arithmetic once with per-element service times (each delay gets
        the bits it gets in sample order) and reads each arm's sum off
        one ``np.add.reduceat`` over the non-empty suffixes (an empty
        one sums to 0).  That sum adds the delays in another order than
        a pass does, so a decision taken on it is certified
        (:func:`_certify`); an arm it leaves undecided takes the exact
        path, :meth:`_meets`.  Every decision is the whole pass's, bit
        for bit.
        """
        n, sample = len(services), len(self.durations)
        ordered = np.sort(self.durations)
        lo, hi = np.zeros(n), np.full(n, float(ordered[-1]))
        service = np.asarray(services)
        for _ in range(iterations):
            SIM_METER.sims += n
            SIM_METER.interval_evals += n * sample
            mids = (lo + hi) / 2.0
            cuts = ordered.searchsorted(mids, "right")
            lengths = sample - cuts
            usable = np.concatenate([ordered[cut:] for cut in cuts.tolist()])
            usable -= mids.repeat(lengths)
            delays = _waiting_arrays(usable, service.repeat(lengths))[0]
            sums, some = np.zeros(n), lengths > 0
            sums[some] = np.add.reduceat(delays, (lengths.cumsum() - lengths)[some])
            accept, reject = _certify(sums, lengths, slowdown_goal, self.total_requests)
            for arm in np.flatnonzero(~(accept | reject)):
                accept[arm] = self._meets(mids[arm], services[arm], slowdown_goal)
            hi = np.where(accept, mids, hi)
            lo = np.where(accept, lo, mids)
        return hi.tolist()

    def _meets(self, threshold: float, service: float, slowdown_goal: float) -> bool:
        """Whether a whole pass at ``threshold`` meets the goal, computed
        as the pass computes it: the exact path of :meth:`_lockstep_highs`."""
        usable = self.durations[self.durations > threshold]
        usable -= threshold
        delays = _waiting_arrays(usable, service)[0]
        return np.add.reduce(delays) / self.total_requests <= slowdown_goal

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
