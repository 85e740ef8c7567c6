"""Policy evaluation: idle-time utilisation vs collision rate (Fig. 14).

Every point in the paper's Fig. 14 is one (policy, parameter) pair
evaluated over a trace's idle intervals:

* **collision rate** — the fraction of foreground requests delayed by
  an in-progress scrub request.  A policy that fires in an interval
  keeps firing until the next foreground request arrives, so each
  fired interval contributes exactly one collision;
* **utilisation** — the fraction of the trace's total idle time spent
  scrubbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.core.policies.base import IdlePolicy


@dataclass(frozen=True)
class PolicyPoint:
    """One evaluated (policy, parameter) point."""

    policy: str
    label: str
    collisions: int
    collision_rate: float
    utilised_time: float
    utilisation: float


def evaluate_policy(
    policy: IdlePolicy,
    durations: np.ndarray,
    total_requests: Optional[int] = None,
    label: str = "",
) -> PolicyPoint:
    """Evaluate one policy over an idle-interval sample.

    Parameters
    ----------
    durations:
        Idle interval lengths.
    total_requests:
        Number of foreground requests in the trace (the collision-rate
        denominator).  Defaults to the number of idle intervals, which
        overstates the rate for bursty traces — pass the real count
        when you have it.
    """
    durations = np.asarray(durations, dtype=float)
    if len(durations) == 0:
        raise ValueError("empty idle sample")
    denominator = total_requests if total_requests is not None else len(durations)
    if denominator <= 0:
        raise ValueError(f"total_requests must be positive: {denominator}")
    fired = policy.fired_mask(durations)
    utilised = policy.utilised_time(durations)
    total_idle = float(durations.sum())
    if total_idle <= 0:
        raise ValueError("total idle time is zero")
    collisions = int(fired.sum())
    return PolicyPoint(
        policy=policy.name,
        label=label or repr(policy),
        collisions=collisions,
        collision_rate=collisions / denominator,
        utilised_time=float(utilised.sum()),
        utilisation=float(utilised.sum()) / total_idle,
    )


def _evaluate_task(
    policy_cls: type,
    parameter: float,
    policy_kwargs: dict,
    durations: np.ndarray,
    total_requests: Optional[int],
    label: str,
) -> PolicyPoint:
    """One sweep point as a picklable, cacheable task."""
    policy = policy_cls(parameter, **policy_kwargs)
    return evaluate_policy(
        policy, durations, total_requests=total_requests, label=label
    )


def sweep_policy_cls(
    policy_cls: type,
    parameters: Iterable[float],
    durations: np.ndarray,
    total_requests: Optional[int] = None,
    policy_kwargs: Optional[dict] = None,
    runner=None,
) -> List[PolicyPoint]:
    """Sweep ``policy_cls(p, **policy_kwargs)`` over ``parameters`` (one
    Fig. 14 line).

    The policy is named by class rather than closed over in a factory,
    so each point is an independent picklable task a
    :class:`~repro.parallel.SweepRunner` can distribute and cache.
    Without a runner the points are evaluated in place, in order.
    """
    policy_kwargs = dict(policy_kwargs or {})
    tasks = [
        dict(
            policy_cls=policy_cls,
            parameter=float(parameter),
            policy_kwargs=policy_kwargs,
            durations=durations,
            total_requests=total_requests,
            label=f"{parameter:g}",
        )
        for parameter in parameters
    ]
    if runner is None:
        return [_evaluate_task(**task) for task in tasks]
    return runner.map(_evaluate_task, tasks)
