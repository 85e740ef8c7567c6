"""Statistical analysis of I/O workloads (paper Section V-A).

Implements, from scratch on numpy, the analyses the paper runs on its
trace collection.  Three functions lean on scipy (``rankdata``,
``special.fdtrc``, ``solve_toeplitz``) and import it at the call, so
importing this package loads none of it (DESIGN section 17).  Period
detection computes every candidate's one-way ANOVA F in one numpy pass
and their p-values in one ``fdtrc`` call, not one ``scipy.stats``
``f_oneway`` call per candidate:

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

from repro import _lazy

_EXPORTS = {
    "ARModel": ".ar",
    "IdleStats": ".idle",
    "PeriodResult": ".periodicity",
    "acf": ".autocorr",
    "anova_period": ".periodicity",
    "expected_remaining": ".hazard",
    "fit_ar": ".ar",
    "fraction_intervals_longer": ".hazard",
    "has_significant_autocorrelation": ".autocorr",
    "percentile_remaining": ".hazard",
    "select_ar_order": ".ar",
    "summarize_idle": ".idle",
    "tail_concentration": ".tails",
    "usable_fraction": ".hazard",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
