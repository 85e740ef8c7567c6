"""Autoregressive models of inter-arrival durations (paper Section V-B).

The paper's AR policy fits an AR(p) model

    X_t = mu + sum_i a_i (X_{t-i} - mu) + eps_t

to the sequence of request inter-arrival (idle interval) durations,
selecting ``p`` by Akaike's Information Criterion, then predicts the
length of the current idle interval from the previous ``p`` at the
moment the interval begins.  The paper notes AR(p) via Yule–Walker is
the only model cheap enough to fit "to the millions of samples that
need to be factored at the I/O level" — ACD and ARIMA were too slow —
so that is what we implement.  The Toeplitz solve is
``scipy.linalg.solve_toeplitz``, imported where it is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.stats.autocorr import acf


@dataclass(frozen=True)
class ARModel:
    """A fitted AR(p) model."""

    mean: float
    coefficients: Tuple[float, ...]  # a_1 .. a_p
    noise_variance: float
    #: AIC of the fit (lower is better).
    aic: float
    n_samples: int

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def predict_series(self, x: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions for every position in ``x``.

        ``out[t]`` predicts ``x[t]`` from ``x[t-p:t]`` (mean-padded at
        the start), vectorised for policy simulations over long traces.
        """
        x = np.asarray(x, dtype=float)
        centred = x - self.mean
        prediction = np.full(len(x), self.mean)
        for i, a in enumerate(self.coefficients, start=1):
            shifted = np.concatenate((np.zeros(i), centred[:-i] if i <= len(x) else []))
            shifted = shifted[: len(x)]
            prediction += a * shifted
        return prediction


def fit_ar(x: np.ndarray, order: int) -> ARModel:
    """Fit AR(``order``) by the Yule–Walker equations.

    Solves the Toeplitz system ``R a = r`` built from the sample ACF —
    O(n log n + p^2), which is what makes million-sample fits cheap.
    """
    x = np.asarray(x, dtype=float)
    if order < 1:
        raise ValueError(f"order must be >= 1: {order}")
    if len(x) <= order + 1:
        raise ValueError(
            f"need more than {order + 1} samples for AR({order}), got {len(x)}"
        )
    from scipy.linalg import solve_toeplitz  # at the call: only AR fits pay

    rho = acf(x, order)
    coefficients = solve_toeplitz((rho[:-1], rho[:-1]), rho[1:])
    variance = float(x.var())
    noise_variance = variance * float(1.0 - np.dot(coefficients, rho[1:]))
    noise_variance = max(noise_variance, np.finfo(float).tiny)
    n = len(x)
    aic = n * np.log(noise_variance) + 2.0 * (order + 1)
    return ARModel(
        mean=float(x.mean()),
        coefficients=tuple(float(a) for a in coefficients),
        noise_variance=noise_variance,
        aic=float(aic),
        n_samples=n,
    )


def select_ar_order(x: np.ndarray, max_order: int = 20) -> ARModel:
    """Fit AR(p) for each order up to ``max_order`` (and a quarter of
    the samples) and return the AIC minimiser."""
    x = np.asarray(x, dtype=float)
    limit = min(max_order, len(x) // 4)
    if limit < 1:
        raise ValueError(f"series too short for AR fitting: {len(x)}")
    best: Optional[ARModel] = None
    for order in range(1, limit + 1):
        model = fit_ar(x, order)
        if best is None or model.aic < best.aic:
            best = model
    assert best is not None  # orders is never empty here
    return best
