"""ANOVA-based period detection (paper Fig. 9).

The paper identifies "the time interval with the strongest periodic
behavior" per trace using analysis of variance at hour granularity:
for a candidate period of ``p`` hours, the hourly request counts are
grouped by phase (hour mod p); if arrival intensity really repeats
with period ``p``, between-phase variance is large relative to
within-phase variance, giving a large F statistic.  The detected
period is the significant candidate with the largest F; a result of
one hour means "no periodicity detected", exactly as in the paper.
The F test is ``scipy.stats.f_oneway``, imported where it is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of period detection."""

    #: Detected period in bins (hours); 1 = no periodicity found.
    period: int
    #: F statistic of the winning period (0 when period == 1).
    f_statistic: float
    #: p-value of the winning period (1 when period == 1).
    p_value: float
    #: (period, F, p) per candidate, for inspection.
    candidates: Tuple[Tuple[int, float, float], ...]


def _anova_f(counts: np.ndarray, period: int) -> Tuple[float, float]:
    """One-way ANOVA F and p grouping ``counts`` by ``index mod period``."""
    groups = [counts[phase::period] for phase in range(period)]
    # Each phase needs at least two observations for a within-variance.
    if any(len(g) < 2 for g in groups):
        return 0.0, 1.0
    from scipy.stats import f_oneway  # at the call: only period detection pays

    f, p = f_oneway(*groups)
    if not np.isfinite(f):
        return 0.0, 1.0
    return float(f), float(p)


def anova_period(
    counts: np.ndarray, max_period: Optional[int] = None
) -> PeriodResult:
    """Detect the strongest period in a series of per-bin counts.

    Counts go through ``log1p`` first — request counts are heavy-tailed,
    and ANOVA assumes roughly homoskedastic groups — and a candidate
    with ``p >= 0.01`` is not significant.

    Parameters
    ----------
    counts:
        Requests per bin (per hour, for the paper's granularity).
    max_period:
        Largest candidate period, default ``len(counts) // 3`` (each
        phase needs several repetitions).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise ValueError("counts must be one-dimensional")
    if len(counts) < 6:
        raise ValueError(
            f"need at least 6 bins to detect a period, got {len(counts)}"
        )
    counts = np.log1p(counts)
    limit = max_period if max_period is not None else len(counts) // 3
    limit = max(2, min(limit, len(counts) // 2))

    results = []
    for period in range(2, limit + 1):
        f, p = _anova_f(counts, period)
        results.append((period, f, p))

    significant = [r for r in results if r[2] < 0.01]
    if not significant:
        return PeriodResult(
            period=1, f_statistic=0.0, p_value=1.0, candidates=tuple(results)
        )
    best = max(significant, key=lambda r: r[1])
    return PeriodResult(
        period=best[0],
        f_statistic=best[1],
        p_value=best[2],
        candidates=tuple(results),
    )
