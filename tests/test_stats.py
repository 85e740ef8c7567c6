"""Tests for the statistics package (repro.stats)."""

import numpy as np
import pytest

from repro.stats import (
    IdleStats,
    acf,
    anova_period,
    expected_remaining,
    fit_ar,
    fraction_intervals_longer,
    has_significant_autocorrelation,
    percentile_remaining,
    select_ar_order,
    summarize_idle,
    tail_concentration,
    usable_fraction,
)
from repro.stats.tails import idle_share_of_largest


def rng():
    return np.random.default_rng(42)


class TestSummarizeIdle:
    def test_exponential_cov_near_one(self):
        sample = rng().exponential(0.5, size=50_000)
        stats = summarize_idle(sample)
        assert stats.mean == pytest.approx(0.5, rel=0.05)
        assert 0.9 < stats.cov < 1.1
        assert stats.is_memoryless_like

    def test_lognormal_cov_large(self):
        sample = rng().lognormal(0, 2.0, size=50_000)
        stats = summarize_idle(sample)
        assert stats.cov > 3.0
        assert not stats.is_memoryless_like

    def test_idle_fraction(self):
        stats = summarize_idle(np.array([1.0, 2.0, 3.0]), span=12.0)
        assert stats.idle_fraction == pytest.approx(0.5)
        assert stats.total_idle == 6.0
        assert stats.count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_idle(np.array([]))
        with pytest.raises(ValueError):
            summarize_idle(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            summarize_idle(np.array([1.0]), span=-1)


class TestAnovaPeriod:
    def _periodic_counts(self, period, repeats, noise=0.1):
        base = 100 + 80 * np.sin(2 * np.pi * np.arange(period) / period)
        counts = np.tile(base, repeats)
        return counts * (1 + noise * rng().standard_normal(len(counts)))

    def test_detects_injected_period(self):
        counts = self._periodic_counts(24, 7)
        result = anova_period(counts, max_period=36)
        assert result.period == 24
        assert result.p_value < 0.01

    def test_no_period_in_noise(self):
        counts = rng().poisson(100, size=24 * 7).astype(float)
        result = anova_period(counts, max_period=36)
        assert result.period == 1
        assert result.f_statistic == 0.0

    def test_shorter_period(self):
        counts = self._periodic_counts(12, 10)
        result = anova_period(counts, max_period=30)
        # 12 or a multiple of 12 should dominate; the strongest is 12's
        # structure so the result must be divisible by 12... or 12 itself.
        assert result.period % 12 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            anova_period(np.ones(3))
        with pytest.raises(ValueError):
            anova_period(np.ones((4, 4)))


class TestAutocorrelation:
    def test_acf_lag_zero_is_one(self):
        x = rng().standard_normal(1000)
        values = acf(x, 5)
        assert values[0] == pytest.approx(1.0)

    def test_acf_of_ar1(self):
        noise = rng().standard_normal(200_000)
        x = np.empty_like(noise)
        x[0] = noise[0]
        phi = 0.7
        for i in range(1, len(noise)):
            x[i] = phi * x[i - 1] + noise[i]
        values = acf(x, 3)
        assert values[1] == pytest.approx(phi, abs=0.02)
        assert values[2] == pytest.approx(phi**2, abs=0.03)

    def test_acf_validation(self):
        with pytest.raises(ValueError):
            acf(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            acf(np.ones(10) * 3, 2)  # zero variance
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 10)

    def test_significance_on_white_noise(self):
        x = rng().standard_normal(20_000)
        assert not has_significant_autocorrelation(x)

    def test_significance_on_correlated(self):
        noise = rng().standard_normal(20_000)
        x = np.convolve(noise, np.ones(5) / 5, mode="valid")
        assert has_significant_autocorrelation(x)

    def test_rank_method_handles_heavy_tails(self):
        heavy = np.exp(3.0 * rng().standard_normal(50_000))
        shuffled = heavy.copy()
        assert not has_significant_autocorrelation(shuffled)


class TestARFitting:
    def _ar1(self, phi, n=100_000):
        noise = rng().standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for i in range(1, n):
            x[i] = 5.0 + phi * (x[i - 1] - 5.0) + noise[i]
        return x

    def test_recovers_ar1_coefficient(self):
        x = self._ar1(0.6)
        model = fit_ar(x, 1)
        assert model.coefficients[0] == pytest.approx(0.6, abs=0.02)
        assert model.mean == pytest.approx(5.0, abs=0.1)

    def test_prediction_moves_toward_mean(self):
        model = fit_ar(self._ar1(0.6), 1)
        high = model.predict_series([20.0, 20.0])[1]
        assert model.mean < high < 20.0

    def test_prediction_with_short_history_pads_with_mean(self):
        model = fit_ar(self._ar1(0.6), 3)
        x = [20.0, 20.0]
        # Lags 2 and 3 reach before the series: they read the mean.
        expected = model.mean + model.coefficients[0] * (20.0 - model.mean)
        assert model.predict_series(x)[1] == pytest.approx(expected)

    def test_predict_series_matches_pointwise(self):
        x = self._ar1(0.5, n=500)
        model = fit_ar(x, 2)
        series = model.predict_series(x)
        pointwise = model.mean + sum(
            a * (x[10 - i] - model.mean)
            for i, a in enumerate(model.coefficients, start=1)
        )
        assert series[10] == pytest.approx(pointwise, rel=1e-9)
        # The first prediction has no history: it's the mean.
        assert series[0] == pytest.approx(model.mean)

    def test_aic_selects_reasonable_order(self):
        x = self._ar1(0.6, n=50_000)
        model = select_ar_order(x, max_order=6)
        assert 1 <= model.order <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_ar(np.ones(100) * 2.0 + np.arange(100) * 0, 0)
        with pytest.raises(ValueError):
            fit_ar(np.array([1.0, 2.0]), 5)
        with pytest.raises(ValueError):
            select_ar_order(np.array([1.0, 2.0]))


class TestHazard:
    def test_exponential_has_constant_remaining(self):
        sample = rng().exponential(2.0, size=400_000)
        taus = np.array([0.1, 1.0, 3.0])
        remaining = expected_remaining(sample, taus)
        assert np.allclose(remaining, 2.0, rtol=0.1)

    def test_heavy_tail_has_increasing_remaining(self):
        sample = np.exp(2.5 * rng().standard_normal(200_000))
        taus = np.array([0.01, 0.1, 1.0, 10.0])
        remaining = expected_remaining(sample, taus)
        assert np.all(np.diff(remaining) > 0)

    def test_remaining_nan_beyond_max(self):
        remaining = expected_remaining(np.array([1.0, 2.0]), np.array([5.0]))
        assert np.isnan(remaining[0])

    def test_percentile_remaining_bounds(self):
        sample = rng().exponential(1.0, size=100_000)
        p1 = percentile_remaining(sample, np.array([0.5]), q=1.0)
        p50 = percentile_remaining(sample, np.array([0.5]), q=50.0)
        assert 0 <= p1[0] < p50[0]

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_remaining(np.array([1.0]), np.array([0.1]), q=0.0)

    def test_usable_fraction_decreases(self):
        sample = np.exp(2.0 * rng().standard_normal(100_000))
        taus = np.array([0.0, 0.1, 1.0, 10.0])
        usable = usable_fraction(sample, taus)
        assert usable[0] == pytest.approx(1.0)
        assert np.all(np.diff(usable) <= 0)
        assert np.all(usable >= 0)

    def test_fraction_intervals_longer(self):
        sample = np.array([1.0, 2.0, 3.0, 4.0])
        fractions = fraction_intervals_longer(sample, np.array([0.0, 2.5, 10.0]))
        assert fractions.tolist() == [1.0, 0.5, 0.0]

    def test_heavy_tail_waiting_tradeoff(self):
        """Fig. 13's claim: waiting 100 ms keeps most idle time usable
        while selecting only a small fraction of intervals."""
        sample = np.exp(2.5 * rng().standard_normal(200_000)) * 0.02
        tau = np.array([0.1])
        assert usable_fraction(sample, tau)[0] > 0.5
        assert fraction_intervals_longer(sample, tau)[0] < 0.3

    def test_empty_validation(self):
        with pytest.raises(ValueError):
            expected_remaining(np.array([]), np.array([1.0]))


class TestTails:
    def test_concentration_curve_shape(self):
        sample = np.exp(2.5 * rng().standard_normal(100_000))
        fractions, idle = tail_concentration(sample)
        assert idle[-1] == pytest.approx(1.0)
        assert np.all(np.diff(idle) >= 0)
        assert np.all(idle >= fractions - 1e-12)

    def test_heavy_tail_concentrates(self):
        """The paper's 80/15 structure for heavy-tailed idle time."""
        sample = np.exp(3.0 * rng().standard_normal(100_000))
        assert idle_share_of_largest(sample, 0.15) > 0.8

    def test_uniform_sample_no_concentration(self):
        sample = np.full(1000, 2.0)
        assert idle_share_of_largest(sample, 0.15) == pytest.approx(0.15, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_concentration(np.array([]))
        with pytest.raises(ValueError):
            tail_concentration(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            idle_share_of_largest(np.array([1.0]), 0.0)
