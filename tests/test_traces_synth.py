"""Tests for synthetic trace generation and the catalog (repro.traces)."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.traces import (
    CATALOG,
    SyntheticTraceGenerator,
    TraceProfile,
    generate_trace,
)
from repro.traces.catalog import trace_idle_intervals
from repro.traces.idle import idle_intervals, service_times
from repro.traces.synth import FLAT, OFFICE_HOURS, _lognormal_params

BURSTY = sorted(
    name for name, spec in CATALOG.items()
    if not spec.profile.memoryless and spec.profile.gap_autocorr != 0
)


def make_generator(profile):
    return SyntheticTraceGenerator(profile, RandomStreams(seed=11).get("synth"))


class TestProfileValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TraceProfile(name="x", duration=0)
        with pytest.raises(ValueError):
            TraceProfile(name="x", idle_gap_mean=0)
        with pytest.raises(ValueError):
            TraceProfile(name="x", burst_len_mean=0.5)
        with pytest.raises(ValueError):
            TraceProfile(name="x", gap_autocorr=1.0)
        with pytest.raises(ValueError):
            TraceProfile(name="x", hourly_profile=())
        with pytest.raises(ValueError):
            TraceProfile(name="x", write_fraction=1.5)
        with pytest.raises(ValueError):
            TraceProfile(
                name="x", size_choices=(8,), size_weights=(0.5, 0.5)
            )


class TestGenerator:
    def test_trace_is_valid_and_bounded(self):
        profile = TraceProfile(
            name="t", duration=3600.0, capacity_sectors=100_000,
            idle_gap_mean=0.2, idle_gap_cov=5.0, burst_len_mean=5,
        )
        trace = make_generator(profile).generate()
        assert len(trace) > 100
        assert trace.times[-1] < 3600.0
        assert np.all(np.diff(trace.times) >= 0)
        assert np.all(trace.lbns + trace.sectors <= 100_000)

    def test_reproducible(self):
        profile = TraceProfile(name="t", duration=600.0)
        a = make_generator(profile).generate()
        b = make_generator(profile).generate()
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.lbns, b.lbns)

    def test_memoryless_rate_and_cov(self):
        profile = TraceProfile(
            name="poisson", duration=600.0, memoryless=True, rate=100.0,
            hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        rate = len(trace) / trace.duration
        assert rate == pytest.approx(100.0, rel=0.1)
        inter = trace.interarrivals
        cov = inter.std() / inter.mean()
        assert 0.9 < cov < 1.1

    def test_bursty_has_high_cov(self):
        profile = TraceProfile(
            name="bursty", duration=7200.0, idle_gap_mean=0.3,
            idle_gap_cov=20.0, burst_len_mean=10, hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        inter = trace.interarrivals
        assert inter.std() / inter.mean() > 5.0

    def test_write_fraction_respected(self):
        profile = TraceProfile(
            name="w", duration=1800.0, write_fraction=0.8, hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        assert trace.is_write.mean() == pytest.approx(0.8, abs=0.05)

    def test_sizes_from_choices(self):
        profile = TraceProfile(
            name="s", duration=600.0, size_choices=(8, 64),
            size_weights=(0.5, 0.5), hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        assert set(np.unique(trace.sectors)) <= {8, 64}

    def test_periodic_profile_modulates_hourly_counts(self):
        profile = TraceProfile(
            name="p", duration=2 * 86400.0, idle_gap_mean=0.5,
            idle_gap_cov=3.0, burst_len_mean=3,
            hourly_profile=OFFICE_HOURS,
        )
        trace = make_generator(profile).generate()
        counts = trace.requests_per_bin(3600.0)[:48].astype(float)
        busy = counts[9:17].mean() + counts[33:41].mean()
        quiet = counts[0:5].mean() + counts[24:29].mean()
        assert busy > 2 * quiet

    def test_sequential_runs_present(self):
        profile = TraceProfile(
            name="seq", duration=600.0, seq_prob=0.9, hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        deltas = np.diff(trace.lbns)
        expected = trace.sectors[:-1]
        sequential = np.mean(deltas == expected)
        assert sequential > 0.6


class TestCorrelatedGapsExact:
    """``_correlated_lognormal`` against the ``lfilter`` call it replaced."""

    @pytest.mark.parametrize("count", [1, 2, 1000, 51_627])
    @pytest.mark.parametrize("name", BURSTY)
    def test_ar1_recursion_is_lfilter_bit_for_bit(self, name, count):
        """The Python recursion ``y[n] = x[n] + phi*y[n-1]`` is now the
        *definition* of the gap process; ``scipy.signal.lfilter([1], [1,
        -phi], x)`` (direct form II transposed: the same multiply and
        the same add, each rounded once) is only the reference it is
        checked against.  On a platform whose scipy build fuses the
        multiply-add the two differ in the last bit and this one test
        fails -- loudly, here, instead of as a silent drift of every
        trace digest.  The traces are then still the ones every other
        machine generates.
        """
        from scipy.signal import lfilter

        profile = CATALOG[name].profile
        phi = profile.gap_autocorr
        mu, sigma = _lognormal_params(profile.idle_gap_mean, profile.idle_gap_cov)
        seed = 1000 + count

        ours = SyntheticTraceGenerator(
            profile, RandomStreams(seed=seed).get("synth")
        )._correlated_lognormal(mu, sigma, count)

        rng = RandomStreams(seed=seed).get("synth")
        noise = rng.normal(0.0, sigma * np.sqrt(1.0 - phi * phi), size=count)
        noise[0] = rng.normal(0.0, sigma)
        reference = np.exp(mu + lfilter([1.0], [1.0, -phi], noise))

        assert ours.dtype == reference.dtype == np.float64
        assert ours.shape == (count,)
        assert ours.tobytes() == reference.tobytes()

    def test_nine_bursty_catalog_profiles_take_the_recursion(self):
        assert len(BURSTY) == 9

    @pytest.mark.parametrize("phi, count", [(0.0, 500), (0.5, 0), (0.0, 0)])
    def test_early_returns_draw_plain_lognormals(self, phi, count):
        profile = TraceProfile(name="t", gap_autocorr=phi)
        gaps = make_generator(profile)._correlated_lognormal(-1.0, 2.0, count)
        plain = RandomStreams(seed=11).get("synth").lognormal(-1.0, 2.0, size=count)
        assert gaps.tobytes() == plain.tobytes()


class TestIdleExtraction:
    def test_simple_idle_intervals(self):
        times = np.array([0.0, 1.0, 1.001, 5.0])
        service = np.full(4, 0.1)
        starts, durations = idle_intervals(times, service)
        # busy: [0,0.1]; idle to 1.0; busy till 1.101+0.1? request at 1.001
        # arrives during service of the one at 1.0 -> queued.
        assert len(starts) == 2
        assert durations[0] == pytest.approx(0.9)
        assert starts[1] == pytest.approx(1.2)  # queued request runs 1.1-1.2
        assert durations[1] == pytest.approx(5.0 - 1.2)

    def test_queueing_absorbs_gaps(self):
        times = np.array([0.0, 0.01, 0.02, 10.0])
        service = np.full(4, 1.0)
        starts, durations = idle_intervals(times, service)
        assert len(starts) == 1
        assert starts[0] == pytest.approx(3.0)

    def test_min_duration_filter(self):
        times = np.array([0.0, 0.2, 10.0])
        service = np.full(3, 0.1)
        _, durations = idle_intervals(times, service, min_duration=1.0)
        assert len(durations) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            idle_intervals(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            idle_intervals(np.array([0.0, 1.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            idle_intervals(np.array([0.0, 1.0]), np.array([-0.1, 0.1]))
        with pytest.raises(ValueError):
            service_times(np.array([8]), positioning=-1)

    def test_empty_input(self):
        starts, durations = idle_intervals(np.array([5.0]))
        assert len(starts) == 0


class TestCatalog:
    def test_catalog_covers_paper_tables(self):
        expected = {
            "MSRsrc11", "MSRusr1", "MSRproj2", "MSRprn1",
            "HPc6t8d0", "HPc6t5d1", "HPc6t5d0", "HPc3t3d0",
            "TPCdisk66", "TPCdisk88", "MSRusr2",
        }
        assert expected <= set(CATALOG)

    def test_paper_metadata_recorded(self):
        spec = CATALOG["MSRsrc11"]
        assert spec.paper_requests_per_week == 45_746_222
        assert spec.paper_idle_mean == pytest.approx(0.4640)
        assert spec.paper_idle_cov == pytest.approx(21.693)

    def test_generate_unknown_name(self):
        with pytest.raises(KeyError):
            generate_trace("nope")

    def test_generate_reproducible(self):
        a = generate_trace("MSRprn1", duration=600.0, seed=5)
        b = generate_trace("MSRprn1", duration=600.0, seed=5)
        assert np.array_equal(a.times, b.times)

    def test_seed_changes_trace(self):
        a = generate_trace("MSRprn1", duration=600.0, seed=5)
        b = generate_trace("MSRprn1", duration=600.0, seed=6)
        assert not np.array_equal(a.times, b.times)

    def test_rate_scale_reduces_requests(self):
        full = generate_trace("MSRsrc11", duration=1800.0)
        scaled = generate_trace("MSRsrc11", duration=1800.0, rate_scale=0.1)
        assert len(scaled) < len(full) / 2

    def test_rate_scale_validation(self):
        with pytest.raises(ValueError):
            generate_trace("MSRsrc11", rate_scale=0)

    def test_tpcc_is_memoryless(self):
        trace = generate_trace("TPCdisk66", duration=300.0)
        _, durations = trace_idle_intervals("TPCdisk66", trace)
        cov = durations.std() / durations.mean()
        assert 0.7 < cov < 1.3
        assert durations.mean() == pytest.approx(0.0014, rel=0.25)

    def test_cello_msr_have_heavy_tails(self):
        for name in ("MSRsrc11", "HPc6t8d0"):
            trace = generate_trace(name, duration=4 * 3600.0)
            _, durations = trace_idle_intervals(name, trace)
            cov = durations.std() / durations.mean()
            assert cov > 5.0, name
