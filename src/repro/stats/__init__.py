"""Statistical analysis of I/O workloads (paper Section V-A).

Implements, from scratch on numpy, the analyses the paper runs on its
trace collection.  Three functions lean on scipy (``rankdata``,
``f_oneway``, ``solve_toeplitz``) and import it at the call, so
importing this package loads none of it (DESIGN section 17):

* :mod:`repro.stats.idle` — idle-interval summary statistics (Table II);
* :mod:`repro.stats.periodicity` — ANOVA-based period detection (Fig. 9)
  and activity binning (Fig. 8);
* :mod:`repro.stats.autocorr` — autocorrelation function;
* :mod:`repro.stats.ar` — Yule–Walker AR(p) fitting with AIC order
  selection (the Section V-B Auto-Regression policy's engine);
* :mod:`repro.stats.hazard` — conditional remaining-idle-time
  estimators (Fig. 11, 12, 13: the decreasing-hazard-rate evidence);
* :mod:`repro.stats.tails` — idle-time tail concentration (Fig. 10).
"""

from repro.stats.ar import ARModel, fit_ar, select_ar_order
from repro.stats.autocorr import acf, has_significant_autocorrelation
from repro.stats.hazard import (
    expected_remaining,
    fraction_intervals_longer,
    percentile_remaining,
    usable_fraction,
)
from repro.stats.idle import IdleStats, summarize_idle
from repro.stats.periodicity import PeriodResult, anova_period
from repro.stats.tails import tail_concentration

__all__ = [
    "ARModel",
    "IdleStats",
    "PeriodResult",
    "acf",
    "anova_period",
    "expected_remaining",
    "fit_ar",
    "fraction_intervals_longer",
    "has_significant_autocorrelation",
    "percentile_remaining",
    "select_ar_order",
    "summarize_idle",
    "tail_concentration",
    "usable_fraction",
]
