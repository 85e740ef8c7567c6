"""Autocorrelation estimators.

The paper reports that 44 of its 63 busiest traces show strong
autocorrelation in idle-interval lengths.  The sample ACF here is
FFT-based, so million-sample series are fine.  numpy only, except the
rank transform (``scipy.stats.rankdata``, imported where it is
called).
"""

from __future__ import annotations

import numpy as np


def acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation function for lags ``0..max_lag``.

    Uses the FFT (Wiener–Khinchin) with the biased normalisation, the
    standard choice that keeps the estimated sequence positive
    semi-definite.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must lie in [0, {n}): {max_lag}")
    centred = x - x.mean()
    size = int(2 ** np.ceil(np.log2(2 * n - 1)))
    spectrum = np.fft.rfft(centred, size)
    autocov = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_lag + 1]
    autocov /= n
    if autocov[0] == 0:
        raise ValueError("series has zero variance")
    return autocov / autocov[0]


def has_significant_autocorrelation(x: np.ndarray) -> bool:
    """Whether early ACF values exceed the white-noise confidence band.

    For white noise the ACF at non-zero lags is ~N(0, 1/n); we call the
    series autocorrelated if the mean of the first 10 absolute
    autocorrelations exceeds ``2 / sqrt(n)`` (two sigma).

    The ACF is that of the rank-transformed series (a lag-wise Spearman
    correlation).  Idle-time samples have CoVs of 10–200, and the linear
    ACF of such heavy-tailed data is dominated by a handful of extreme
    values — the rank ACF is the standard robust alternative.
    """
    x = np.asarray(x, dtype=float)
    if len(x) <= 10:
        raise ValueError("series too short for 10 lags")
    from scipy.stats import rankdata  # at the call: only autocorrelation tests pay

    x = rankdata(x)
    values = acf(x, 10)[1:]
    band = 2.0 / np.sqrt(len(x))
    return bool(np.mean(np.abs(values)) > band)
