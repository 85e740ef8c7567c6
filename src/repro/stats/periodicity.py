"""ANOVA-based period detection (paper Fig. 9).

The paper identifies "the time interval with the strongest periodic
behavior" per trace using analysis of variance at hour granularity:
for a candidate period of ``p`` hours, the hourly request counts are
grouped by phase (hour mod p); if arrival intensity really repeats
with period ``p``, between-phase variance is large relative to
within-phase variance, giving a large F statistic.  The detected
period is the significant candidate with the largest F; a result of
one hour means "no periodicity detected", exactly as in the paper.

Every candidate's F comes out of one numpy pass over the series
(:func:`_anova_f`), with ``scipy.stats.f_oneway``'s arithmetic, and all
the p-values out of one ``scipy.special.fdtrc`` call, imported where it
is called (DESIGN section 17).
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


#: Most (period, bin) cells one pass of :func:`_anova_f` lays out; a
#: longer series is taken a block of candidate periods at a time.
_PASS_CELLS = 1 << 22


def _anova_f(
    counts: np.ndarray, periods: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One-way ANOVA F and p grouping ``counts`` by ``index mod period``,
    for every period of ``periods`` at once.

    The sums of squares are ``f_oneway``'s, about the series mean: the
    total is the same for every period, so only the between-phase sum
    needs the phase sums, and one ``bincount`` over every (period,
    phase) slot gives them all.  As with ``f_oneway``, a period the
    series repeats exactly (every phase constant) has an infinite or
    undefined F; such a period, and one with a phase of fewer than two
    observations, scores ``(0.0, 1.0)``.
    """
    from scipy.special import fdtrc  # at the call: only period detection pays

    n = len(counts)
    centered = counts - counts.mean()
    normalized_ss = centered.sum() ** 2 / n
    sstot = centered @ centered - normalized_ss
    index = np.arange(n)
    ssbn = np.empty(len(periods))
    repeats = np.empty(len(periods), dtype=bool)
    step = max(1, _PASS_CELLS // n)
    for lo in range(0, len(periods), step):
        block = periods[lo:lo + step]
        # Row k labels bin i with its phase under block[k], offset so
        # that every (period, phase) pair has a slot of its own.
        offsets = np.concatenate(([0], np.cumsum(block[:-1])))
        labels = (index % block[:, None] + offsets[:, None]).ravel()
        sums = np.bincount(
            labels, weights=np.broadcast_to(centered, (len(block), n)).ravel()
        )
        sizes = np.bincount(labels)
        ssbn[lo:lo + step] = np.add.reduceat(sums ** 2 / sizes, offsets)
        # Bin i's value recurs one period on wherever that bin exists.
        ahead = index + block[:, None]
        same = counts[np.minimum(ahead, n - 1)] == counts
        repeats[lo:lo + step] = (same | (ahead >= n)).all(axis=1)
    ssbn -= normalized_ss
    dfbn = periods - 1
    dfwn = n - periods
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ssbn / dfbn) / ((sstot - ssbn) / dfwn)
    valid = (n // periods >= 2) & ~repeats & np.isfinite(f)
    f = np.where(valid, f, 0.0)
    p = np.where(valid, fdtrc(dfbn, dfwn, f), 1.0)
    return f, p


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

    periods = np.arange(2, limit + 1)
    f, p = _anova_f(counts, periods)
    results = list(zip(periods.tolist(), f.tolist(), p.tolist()))

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
