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
    sums: np.ndarray,
    lengths: np.ndarray,
    spread: np.ndarray,
    slowdown_goal: float,
    total_requests: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(accept, reject)``: where a whole pass certainly meets, or
    certainly misses, the goal, given each arm's estimate of the sum of
    its delays.

    A pass at threshold ``m`` meets the goal when ``fl(E / N) <= goal``,
    ``E`` the pairwise ``np.add.reduce``, in sample order, of the arm's
    ``k = lengths`` delays ``δ = fl(s - fl(d - m))`` (``d > m``, those
    with no request in flight 0) and ``N = total_requests``.  A lockstep
    step (:func:`_estimate`) estimates ``E`` by ``F = sums =
    fl(B + Ft)``: ``Ft`` adds the tail's delays (``d >= fl(m + s/2)``,
    the pass's bits each) in another order, and
    ``B = fl(fl(kb fl(s + m)) - fl(P[t] - P[c]))`` stands for the
    ``kb`` bulk delays, ``P`` the sequential ``np.cumsum`` of the sorted
    sample with ``P[0] = 0`` and ``c``, ``t`` the first bulk and the
    first tail position.  ``spread`` must be
    ``fl(10u A + 4(n+2)u fl(P[t] + P[c]))``, ``A = fl(kb fl(s + m))``
    and ``n`` the sample's size; with no bulk it may be 0.

    *Proof.*  Let ``u = 2**-53``, ``γ_j = ju / (1-ju)`` and ``T`` the
    exact sum of the ``δ``; ``k, n <= 2**50``, as for any array in
    memory.  Any order of adding ``j`` non-negative terms lies within
    ``γ_(j-1)`` of their exact sum relatively (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §4.2): so ``|E - T| <= γT`` and
    ``|Ft - Tt| <= γTt``, ``γ = γ_(k-1)``.  Three terms bound the bulk.
    (i) Its delays: a bulk interval has ``m < d < m + s/2`` exactly
    (``d`` is a float below ``fl(m + s/2)``), so ``fl(d - m) <= s/2``
    (``s`` normal), no request completes and ``δ`` is within
    ``u(d - m) + us <= 1.5us`` of ``s + m - d``.  (ii) The prefix sums:
    ``P[j]`` adds ``j`` non-negative terms, so it is within
    ``γ_(n-1) / (1-γ_(n-1)) P[j] <= 1.5(n-1)u P[j]`` of their exact
    sum.  (iii) The bulk formula's four roundings: ``A`` is within
    ``(2u+u²) kb(s+m)`` of ``kb(s+m)``, and the two subtractions add
    ``u P[t]`` and ``u(A + P[t])``.  With
    ``kb s <= kb(s+m) <= A / (1-u)²`` the bulk's exact sum ``Tb`` is
    within ``ρ = 4.6u A + 1.5(n+1)u (P[t] + P[c])`` of ``B``, and
    ``spread >= 2ρ``: its constants keep room for its own three
    roundings.  The last addition rounds by ``u|B + Ft|``, so
    ``|F - T| <= (γ + u(1+γ)) T + (1+u)ρ``, which gives
    ``T <= (|F| + (1+u)ρ) / (1 - γ - u(1+γ))`` and, while
    ``(k-1)u <= 1/8``,
    ``|F - E| <= (2γ + u(1+γ)) T + (1+u)ρ <= 4ku|F| + 2ρ``.  (With no
    bulk ``F`` adds the same delays in another order and the bound is
    ``4ku F``.)  Let ``S = spread``, ``G = fl(goal N)``, so
    ``|G - goal N| <= u goal N``; ``σ = 4ku`` is exact, ``1 + 8u`` and
    ``1 - 8u`` are floats, and each rounded operation below adds a
    relative error ``<= u``.  *Accept* when
    ``fl(fl(F + S) fl(1+σ)) <= fl(G (1-8u))``:
    ``E <= (1+u)(F + S)(1+σ)``, also where ``F < 0`` (then
    ``|F| <= (1+u)ρ``, as ``B >= -ρ`` and ``Ft >= 0``), so
    ``E (1-u)**3 <= goal N (1+u)**3 (1-8u)``, ``E < goal N`` and
    rounding, monotone, keeps ``fl(E/N) <= goal``.  *Reject* when
    ``fl(fl(F - S) fl(1-σ)) >= fl(G (1+8u))``: then ``F > S``,
    ``E >= (F - S)(1-σ)``, so
    ``E (1+u)**3 >= goal N (1-u)**2 (1+8u) >= goal N (1+2u)(1+u)**3``
    and ``E/N >= goal (1+2u) >= goal + ulp(goal)`` rounds above
    ``goal``.  A goal below ``2**-1000`` certifies nothing, which keeps
    ``goal`` and ``G`` normal and the few ``2**-1074`` an underflowing
    product may lose far below the ``2u G`` of room left; an infinite
    ``G`` accepts, rightly, every finite ``F``.
    """
    if not slowdown_goal >= 2.0 ** -1000:
        nothing = np.zeros(len(sums), dtype=bool)
        return nothing, nothing.copy()
    u = 2.0 ** -53
    goal = slowdown_goal * total_requests
    slack = lengths * (4.0 * u)
    accept = (sums + spread) * (1.0 + slack) <= goal * (1.0 - 8.0 * u)
    reject = (sums - spread) * (1.0 - slack) >= goal * (1.0 + 8.0 * u)
    return accept, reject


def _split(ordered: np.ndarray, mids: np.ndarray, service: np.ndarray):
    """``(cuts, edges, arm, arrays)`` of one lockstep step.

    Arm ``a`` is at threshold ``mids[a]`` with service time
    ``service[a]``; ``ordered`` is the sample sorted ascending.  Its
    usable intervals (``d > m``) start at ``cuts[a]``, its tail
    (``d >= fl(m + s/2)``) at ``edges[a]``; between them lies its bulk.
    ``arrays`` are :func:`~repro.analysis.slowdown._waiting_arrays` of
    every arm's tail, arm after arm, ``arm`` naming each element's arm.
    """
    n = len(ordered)
    cuts = ordered.searchsorted(mids, "right")
    edges = ordered.searchsorted(mids + service / 2.0, "left")
    np.maximum(edges, cuts, out=edges)  # fl(m + s/2) may be m
    arm = np.arange(len(mids)).repeat(n - edges)
    tail = np.concatenate([ordered[edge:] for edge in edges.tolist()])
    tail -= mids[arm]
    return cuts, edges, arm, _waiting_arrays(tail, service[arm])


def _estimate(
    ordered: np.ndarray, prefix: np.ndarray, mids: np.ndarray, service: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sums, lengths, spread)`` of one lockstep step, as
    :func:`_certify` takes them: each arm's estimate ``F`` of its delay
    sum, its usable count ``k`` and the bound on how far the bulk's
    formula may stray.  ``prefix`` is ``ordered``'s ``np.cumsum`` after
    a 0."""
    u, n = 2.0 ** -53, len(ordered)
    cuts, edges, arm, (delays, _, _) = _split(ordered, mids, service)
    scaled = (edges - cuts) * (service + mids)
    low, high = prefix[cuts], prefix[edges]
    # np.bincount adds each arm's tail delays in an order of its own.
    sums = scaled - (high - low) + np.bincount(arm, delays, len(mids))
    spread = (10.0 * u) * scaled + (4.0 * (n + 2) * u) * (high + low)
    return sums, n - cuts, spread


class ScrubParameterOptimizer:
    """Optimises Waiting-policy parameters for one workload.

    Parameters
    ----------
    durations:
        The workload's idle interval durations (from a short
        representative trace — the paper recommends one capturing the
        workload's periodicity): a non-empty 1-D array of finite,
        non-negative seconds.
    total_requests:
        Foreground request count over the same window.
    span:
        Window length in seconds, positive and finite.
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
        if self.durations.ndim != 1 or len(self.durations) == 0:
            raise ValueError(
                f"idle sample must be non-empty and 1-D: shape {self.durations.shape}"
            )
        # One min/max pair refuses NaN (it fails both comparisons), ±inf
        # and negative durations.
        low, self._longest = float(self.durations.min()), float(self.durations.max())
        if not (low >= 0.0 and self._longest < math.inf):
            raise ValueError(
                f"idle durations must be finite and non-negative: "
                f"min {low}, max {self._longest}"
            )
        if not (total_requests > 0 and 0.0 < span < math.inf):
            raise ValueError(
                f"total_requests must be positive and span positive and "
                f"finite: {total_requests}, {span}"
            )
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

        First the threshold-0 pass (skipped when ``at_zero`` holds it)
        and, unless that meets the goal, the threshold-max pass; then
        ``iterations`` bisection steps between 0 and the longest
        interval.  ``None`` means the threshold-max pass missed the
        goal; the real pass cannot, because at the longest interval
        nothing is usable, so its mean slowdown is 0 and any positive
        goal is met.  Only a substituted pass reaches ``None``.

        The working set only shrinks: a rejected midpoint becomes
        ``lo``, every later threshold is ``>= lo``, so an interval no
        longer than ``lo`` can never be usable again and is dropped
        (order kept).  A step reads the mean slowdown as one
        ``np.add.reduce`` -- the reduction a whole pass makes -- and the
        search keeps the arrays of its last accepted step, or else its
        threshold-max result.  Each step's decision is the one
        simulating the whole sample makes, and is metered as that, so
        the answer is bit-identical to it.
        """
        if not slowdown_goal > 0:
            raise ValueError(f"slowdown_goal must be positive: {slowdown_goal}")
        durations, total_requests = self.durations, self.total_requests
        top = self._longest
        service = float(self.service_model.time(float(request_bytes)))
        if at_zero is None:
            at_zero = self._pass(durations, 0.0, request_bytes, service)
        if at_zero.mean_slowdown <= slowdown_goal:
            return at_zero
        best = self._pass(durations, top, request_bytes, service)
        if best.mean_slowdown > slowdown_goal:
            return None
        reduce, sample = np.add.reduce, len(durations)
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
        if accepted is None:  # the threshold-max result stands
            return best
        return _fixed_result(hi, request_bytes, accepted, total_requests, self.span)

    def _rung_scores(
        self,
        sizes: Sequence[int],
        slowdown_goal: float,
        iterations: int,
        ordered: np.ndarray,
    ) -> List[Tuple[float, float]]:
        """Each size's ``(threshold, throughput)``: those of
        :meth:`best_threshold`'s answer, bit for bit, every size
        bisected at once, and the meter charged as it charges.

        ``ordered`` is ``self.durations`` sorted ascending, so the
        intervals longer than a threshold ``m`` are a suffix of it.  For
        a size of service time ``s``, those shorter than ``fl(m + s/2)``
        -- the bulk -- complete no request, so each delays its
        foreground request by ``fl(s - fl(d - m))`` and scrubs one: the
        bulk's delay sum is about ``kb (s + m) - (P[t] - P[c])``, read
        off one prefix sum ``P`` of ``ordered``, and its request count
        is ``kb``.  Only the rest -- the tail -- runs the Waiting
        arithmetic, every size's tail in one
        :func:`~repro.analysis.slowdown._waiting_arrays` call with
        per-element service times (each delay gets the bits it gets in
        sample order).  One such step decides every size's threshold-0
        pass, one each of the ``iterations`` lockstep steps decides the
        midpoints of the sizes left bisecting (threshold max is met,
        and metered unrun: nothing is usable past the longest
        interval), and one more counts the requests each size scrubs at
        its answer, in integer-valued sums exact in any order.  A
        decision stands only where :func:`_certify` proves the
        sample-order pass decides alike; an arm it leaves undecided
        takes the exact path, :meth:`_meets`.
        """
        if not slowdown_goal > 0:
            raise ValueError(f"slowdown_goal must be positive: {slowdown_goal}")
        n, total_requests = len(ordered), self.total_requests
        prefix = np.zeros(n + 1)
        np.cumsum(ordered, out=prefix[1:])
        services = self.service_model.time(np.asarray(sizes, dtype=float))

        def meets(mids, service):
            sums, lengths, spread = _estimate(ordered, prefix, mids, service)
            accept, reject = _certify(
                sums, lengths, spread, slowdown_goal, total_requests
            )
            undecided = accept == reject  # never both
            if undecided.any():
                for arm in np.flatnonzero(undecided).tolist():
                    accept[arm] = self._meets(
                        float(mids[arm]), float(service[arm]), slowdown_goal
                    )
            return accept

        arms = len(sizes)
        SIM_METER.sims += arms
        SIM_METER.interval_evals += arms * n
        thresholds = np.zeros(arms)
        bisect = np.flatnonzero(~meets(thresholds, services))
        SIM_METER.sims += len(bisect) * (1 + iterations)
        SIM_METER.interval_evals += len(bisect) * (1 + iterations) * n
        service = services[bisect]
        lo, hi = np.zeros(len(bisect)), np.full(len(bisect), float(ordered[-1]))
        # With no arm left to bisect there is nothing to concatenate.
        for _ in range(iterations if len(bisect) else 0):
            mids = (lo + hi) / 2.0
            accept = meets(mids, service)
            hi = np.where(accept, mids, hi)
            lo = np.where(accept, lo, mids)
        thresholds[bisect] = hi
        cuts, edges, arm, (_, complete, idle) = _split(ordered, thresholds, services)
        complete += ~idle  # the request in flight still completes
        # Integer-valued sums below 2**53: exact in any order.
        requests = (edges - cuts) + np.bincount(arm, complete, arms)
        throughput = requests * np.asarray(sizes, dtype=float) / self.span
        return list(zip(thresholds.tolist(), throughput.tolist()))

    def _meets(self, threshold: float, service: float, slowdown_goal: float) -> bool:
        """Whether a whole pass at ``threshold`` meets the goal, computed
        as the pass computes it: the exact path of :meth:`_rung_scores`."""
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
