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
from repro.stats.periodicity import _anova_f
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


#: How far ``anova_period``'s candidates may sit from ``f_oneway``'s, in
#: units in the last place: of ``max(|F|, 1)`` for F, of p for p.  Both
#: compute the within-phase sum as total minus between, which cancels
#: most where F is large, and sum in different orders (where the true
#: between-phase sum is 0, either F is rounding noise far below 1); the
#: p-value's relative error is F's times |d ln p / d ln F|, which is
#: large far in the tail where these series' p-values lie.  Largest
#: seen: F 195, p 8288 ulps (Fig. 9's disks and the series below).
F_ULPS = 512
P_ULPS = 16384


def f_oneway_ulps(counts, max_period):
    """Largest (F, p) distance in ulps (see :data:`F_ULPS`) between
    ``anova_period(counts, max_period)``'s candidates and
    ``scipy.stats.f_oneway`` run on each candidate's phase groups of the
    same ``log1p`` counts, a non-finite F scoring ``(0.0, 1.0)`` as in
    ``anova_period``."""
    from scipy.stats import f_oneway

    series = np.log1p(np.asarray(counts, dtype=float))
    worst = np.zeros(2)
    for period, f, p in anova_period(counts, max_period).candidates:
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = f_oneway(*(series[phase::period] for phase in range(period)))
        if not np.isfinite(expected[0]):
            expected = (0.0, 1.0)
        for slot, (got, want, floor) in enumerate(zip((f, p), expected, (1.0, 0.0))):
            spacing = np.spacing(max(abs(got), abs(float(want)), floor))
            worst[slot] = max(worst[slot], abs(got - want) / spacing)
    return tuple(worst)


class TestAnovaPeriod:
    def _periodic_counts(self, period, repeats, noise=0.1):
        base = 100 + 80 * np.sin(2 * np.pi * np.arange(period) / period)
        counts = np.tile(base, repeats)
        return counts * (1 + noise * rng().standard_normal(len(counts)))

    @pytest.mark.parametrize("series, max_period", [
        ("periodic-24", 36), ("noise", 36), ("periodic-12", 30),
    ])
    def test_every_candidate_matches_f_oneway(self, series, max_period):
        counts = {
            "periodic-24": lambda: self._periodic_counts(24, 7),
            "noise": lambda: rng().poisson(100, size=24 * 7).astype(float),
            "periodic-12": lambda: self._periodic_counts(12, 10),
        }[series]()
        f_ulps, p_ulps = f_oneway_ulps(counts, max_period)
        assert f_ulps <= F_ULPS and p_ulps <= P_ULPS

    def test_a_period_the_series_repeats_exactly_scores_zero_one(self):
        # f_oneway's F is infinite there (every phase constant); at the
        # other candidates it is finite and the two agree.
        counts = np.tile([3.0, 9.0, 1.0, 4.0], 6)
        result = anova_period(counts, max_period=12)
        scores = {period: (f, p) for period, f, p in result.candidates}
        assert scores[4] == scores[8] == scores[12] == (0.0, 1.0)
        assert scores[5][0] > 0.0 and scores[5][1] < 1.0
        assert result.period not in (4, 8, 12)
        f_ulps, p_ulps = f_oneway_ulps(counts, 12)
        assert f_ulps <= F_ULPS and p_ulps <= P_ULPS

    def test_a_constant_series_scores_zero_one_everywhere(self):
        result = anova_period(np.full(30, 7.0))
        assert {(f, p) for _, f, p in result.candidates} == {(0.0, 1.0)}
        assert (result.period, result.f_statistic, result.p_value) == (1, 0.0, 1.0)

    def test_a_phase_of_one_observation_scores_zero_one(self):
        counts = np.log1p(rng().poisson(100, size=11).astype(float))
        f, p = _anova_f(counts, np.array([2, 5, 6, 10]))
        assert f[:2].min() > 0.0
        assert (f[2:].tolist(), p[2:].tolist()) == ([0.0, 0.0], [1.0, 1.0])

    def test_a_long_series_is_taken_a_block_of_periods_at_a_time(
        self, monkeypatch
    ):
        counts = np.log1p(rng().poisson(100, size=200).astype(float))
        periods = np.arange(2, 67)
        whole = _anova_f(counts, periods)
        monkeypatch.setattr("repro.stats.periodicity._PASS_CELLS", 1000)
        blocked = _anova_f(counts, periods)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

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
