"""Tests for synthetic trace generation and the catalog (repro.traces)."""

import copy
import pickle
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.traces import (
    CATALOG,
    SyntheticTraceGenerator,
    Trace,
    TraceProfile,
    generate_trace,
)
from repro.traces import synth
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
        inter = np.diff(trace.times)
        cov = inter.std() / inter.mean()
        assert 0.9 < cov < 1.1

    def test_bursty_has_high_cov(self):
        profile = TraceProfile(
            name="bursty", duration=7200.0, idle_gap_mean=0.3,
            idle_gap_cov=20.0, burst_len_mean=10, hourly_profile=FLAT,
        )
        trace = make_generator(profile).generate()
        inter = np.diff(trace.times)
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
    """``_correlated_lognormal`` against ``lfilter`` and the Python loop."""

    @pytest.mark.parametrize("count", [
        1, 2, 1000, 51_627,
        synth._LFILTER_BURSTS - 1, synth._LFILTER_BURSTS, synth._LFILTER_BURSTS + 1,
    ])
    @pytest.mark.parametrize("name", BURSTY)
    def test_ar1_recursion_is_lfilter_bit_for_bit(self, name, count):
        """The recursion ``y[n] = x[n] + phi*y[n-1]`` is the *definition*
        of the gap process.  Below ``_LFILTER_BURSTS`` gaps it runs as a
        Python loop, from there as ``scipy.signal.lfilter([1], [1, -phi],
        x)`` (direct form II transposed: the same multiply and the same
        add, each rounded once); both must equal both references, the
        loop and ``lfilter``, on either side of the switch.  On a
        platform whose scipy build fuses the multiply-add the two differ
        in the last bit and this one test fails -- loudly, here, instead
        of as a silent drift of every trace digest.
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
        loop = np.exp(mu + np.fromiter(
            accumulate(noise.tolist(), lambda y, x: x + phi * y), dtype=float
        ))

        assert ours.dtype == reference.dtype == np.float64
        assert ours.shape == (count,)
        assert ours.tobytes() == reference.tobytes() == loop.tobytes()

    def test_nine_bursty_catalog_profiles_take_the_recursion(self):
        assert len(BURSTY) == 9

    @pytest.mark.parametrize("phi, count", [(0.0, 500), (0.5, 0), (0.0, 0)])
    def test_early_returns_draw_plain_lognormals(self, phi, count):
        profile = TraceProfile(name="t", gap_autocorr=phi)
        gaps = make_generator(profile)._correlated_lognormal(-1.0, 2.0, count)
        plain = RandomStreams(seed=11).get("synth").lognormal(-1.0, 2.0, size=count)
        assert gaps.tobytes() == plain.tobytes()


# -- the one-shot synthesis the block loop replaced --------------------------
#
# ``_bursty_times``, ``_warp``, ``_addresses`` and the body of
# ``generate`` as they stood before synthesis went block-wise, and
# ``_jump_targets`` as it stood before its draws were counted and its
# targets formed in place: verbatim but for ``self`` becoming the
# generator passed in.  They draw the same values in the same order
# from the same stream, hold every array for the whole draw at once,
# and are the reference the block loop must equal bit for bit.

def _one_shot_generate(self) -> Trace:
    p = self.profile
    if p.memoryless:
        times = self._poisson_times()
    else:
        times = _one_shot_bursty_times(self)
    n = len(times)
    sectors = self.rng.choice(
        p.size_choices,
        size=n,
        p=np.asarray(p.size_weights) / np.sum(p.size_weights),
    ).astype(np.int64)
    lbns = _one_shot_addresses(self, sectors)
    is_write = self.rng.random(n) < p.write_fraction
    return Trace(
        times,
        lbns,
        sectors,
        is_write,
        name=p.name,
        description=p.description,
        capacity_sectors=p.capacity_sectors,
    )


def _one_shot_bursty_times(self) -> np.ndarray:
    """ON/OFF bursts in operational time, warped for periodicity."""
    p = self.profile
    mu, sigma = _lognormal_params(p.idle_gap_mean, p.idle_gap_cov)
    mean_burst_duration = p.burst_len_mean * p.intra_gap_mean
    mean_cycle = p.idle_gap_mean + mean_burst_duration
    n_bursts = int(p.duration / mean_cycle * 1.3) + 10

    gaps = self._correlated_lognormal(mu, sigma, n_bursts)
    # Geometric lengths with the requested mean (support >= 1).
    success = min(1.0, 1.0 / p.burst_len_mean)
    lengths = self.rng.geometric(success, size=n_bursts)
    total = int(lengths.sum())
    intra = self.rng.exponential(p.intra_gap_mean, size=total)

    # Offsets of each arrival inside its burst (cumsum with resets).
    burst_ends = np.cumsum(lengths)
    burst_starts_idx = burst_ends - lengths
    running = np.cumsum(intra)
    base = np.repeat(
        running[burst_starts_idx] - intra[burst_starts_idx], lengths
    )
    offsets = running - base

    burst_durations = running[burst_ends - 1] - (
        running[burst_starts_idx] - intra[burst_starts_idx]
    )
    prior_durations = np.concatenate(([0.0], np.cumsum(burst_durations[:-1])))
    burst_start_times = np.cumsum(gaps) + prior_durations
    times = np.repeat(burst_start_times, lengths) + offsets

    times = _one_shot_warp(self, times)
    return times[times < p.duration]


def _one_shot_warp(self, operational_times: np.ndarray) -> np.ndarray:
    p = self.profile
    profile = np.asarray(p.hourly_profile, dtype=float)
    if np.allclose(profile, profile[0]):
        return operational_times  # flat: warping is the identity
    profile = profile / profile.mean()
    hour = p.period_hours * 3600.0 / len(profile)
    n_hours = int(np.ceil(p.duration / hour)) + len(profile) + 1
    multipliers = np.tile(profile, -(-n_hours // len(profile)))[:n_hours]
    wall_knots = np.arange(n_hours + 1) * hour
    operational_knots = np.concatenate(
        ([0.0], np.cumsum(multipliers * hour))
    )
    return np.interp(operational_times, operational_knots, wall_knots)


def _one_shot_addresses(self, sectors: np.ndarray) -> np.ndarray:
    """Sequential runs interleaved with jumps into hot regions."""
    p = self.profile
    n = len(sectors)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    is_jump = self.rng.random(n) >= p.seq_prob
    is_jump[0] = True
    jump_targets = _one_shot_jump_targets(self, int(is_jump.sum()))

    # Run-relative offsets: cumsum of sizes with a reset at each jump.
    shifted = np.concatenate(([0], sectors[:-1]))
    running = np.cumsum(shifted)
    jump_idx = np.flatnonzero(is_jump)
    run_ids = np.cumsum(is_jump) - 1
    base = running[jump_idx][run_ids]
    offsets = running - base
    lbns = jump_targets[run_ids] + offsets
    # Wrap runs that fall off the end of the disk.
    limit = p.capacity_sectors - int(sectors.max())
    return np.mod(lbns, max(1, limit)).astype(np.int64)


def _one_shot_jump_targets(self, count: int) -> np.ndarray:
    p = self.profile
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    spots = np.asarray(p.hot_spots, dtype=float)
    weights = spots[:, 2] / spots[:, 2].sum()
    chosen = self.rng.choice(len(spots), size=count, p=weights)
    centres = spots[chosen, 0]
    widths = spots[chosen, 1]
    fractions = centres + (self.rng.random(count) - 0.5) * widths
    fractions = np.clip(fractions, 0.0, 1.0)
    return (fractions * (p.capacity_sectors - 1)).astype(np.int64)


def catalog_generator(name, duration, seed, **overrides):
    """What ``generate_trace(name, duration, seed)`` builds, not yet run."""
    profile = CATALOG[name].profile.with_overrides(
        duration=float(duration), **overrides
    )
    return SyntheticTraceGenerator(
        profile, RandomStreams(seed=seed).get(f"trace/{name}")
    )


def assert_same_trace(ours: Trace, reference: Trace) -> None:
    for column in ("times", "lbns", "sectors", "is_write"):
        a, b = getattr(ours, column), getattr(reference, column)
        assert a.dtype == b.dtype, column
        assert a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column
    assert ours.digest() == reference.digest()


def both_ways(name, duration, seed, **overrides):
    """(block-wise trace, one-shot trace), run-dry warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ours = catalog_generator(name, duration, seed, **overrides).generate()
        reference = _one_shot_generate(
            catalog_generator(name, duration, seed, **overrides)
        )
    return ours, reference


MEMORYLESS = sorted(set(CATALOG) - set(BURSTY))


class TestBlockSynthesisExact:
    """Block-wise synthesis against the one-shot code it replaced."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("duration", [60, 600, 3600, 21_600])
    @pytest.mark.parametrize("name", BURSTY)
    def test_bursty_catalog_traces_equal_one_shot(self, name, duration, seed):
        ours, reference = both_ways(name, duration, seed)
        assert len(ours) > 0
        assert_same_trace(ours, reference)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("duration", [60, 600])
    @pytest.mark.parametrize("name", MEMORYLESS)
    def test_memoryless_catalog_traces_equal_one_shot(self, name, duration, seed):
        """Same arrivals either way; this is the in-place address path."""
        assert_same_trace(*both_ways(name, duration, seed))

    def test_generate_trace_is_the_block_path(self):
        ours = generate_trace("MSRusr1", duration=600, seed=7)
        assert_same_trace(ours, both_ways("MSRusr1", 600, 7)[1])

    @pytest.mark.parametrize("block", [1, 7, 4096, 1 << 40])
    @pytest.mark.parametrize("name", BURSTY)
    def test_any_block_size_gives_the_same_trace(self, monkeypatch, name, block):
        """1: every burst its own block, boundaries on the first and the
        last burst and between all neighbours; 7: bursts longer than the
        block (means are 2-40 arrivals) are one block each; 2**40: the
        whole draw is one block, which is the one-shot computation."""
        monkeypatch.setattr(synth, "_BLOCK", block)
        assert_same_trace(*both_ways(name, 600, 7))

    @pytest.mark.parametrize("block", [7, 4096])
    def test_block_boundaries_after_the_horizon_and_in_a_dry_trace(
        self, monkeypatch, block
    ):
        monkeypatch.setattr(synth, "_BLOCK", block)
        assert_same_trace(*both_ways("MSRsrc11", 3600, 11))  # stops early
        assert_same_trace(*both_ways("HPc6t8d0", 14_400, 0))  # runs dry
        assert_same_trace(*both_ways("MSRsrc11", 600, 3, hourly_profile=FLAT))

    @pytest.mark.parametrize("name, scale", [("MSRsrc11", 0.03), ("HPc6t5d1", 0.5)])
    def test_rate_scaled_traces_equal_one_shot(self, name, scale):
        ours = generate_trace(name, duration=3600, seed=7, rate_scale=scale)
        burst_len_mean = max(1.0, CATALOG[name].profile.burst_len_mean * scale)
        reference = both_ways(name, 3600, 7, burst_len_mean=burst_len_mean)[1]
        assert_same_trace(ours, reference)

    @pytest.mark.parametrize("name, duration, overrides, dry", [
        ("MSRsrc11", 21_600, {}, False),  # the loop stops at the horizon
        ("HPc6t8d0", 14_400, {}, True),  # the loop consumes every burst
        ("MSRusr2", 600, {"hourly_profile": FLAT}, False),  # no warp
    ])
    def test_stream_stands_where_the_one_shot_left_it(
        self, name, duration, overrides, dry
    ):
        """Sizes, addresses and write flags are drawn next on the same
        stream, so the gaps of bursts never reached must still be drawn."""
        ours = catalog_generator(name, duration, 7, **overrides)
        reference = catalog_generator(name, duration, 7, **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            times = ours._bursty_times()
        assert bool(caught) == dry
        assert times.tobytes() == _one_shot_bursty_times(reference).tobytes()
        assert ours.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("block", [1, 2, 7, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_carried_sum_is_the_sum(self, block, seed):
        """The one numpy property the exactness rests on: ``np.cumsum``
        adds left to right, so a block that starts from the previous
        block's last value performs the additions of the whole."""
        values = np.random.default_rng(seed).exponential(0.002, size=10_000)
        values[::97] *= 1e6  # mixed magnitudes: rounding differs by order
        chained, carry = [], 0.0
        for lo in range(0, len(values), block):
            sums = synth._continued_cumsum(carry, values[lo:lo + block])
            assert sums[0] == carry
            carry = sums[-1]
            chained.append(sums[1:])
        assert np.concatenate(chained).tobytes() == np.cumsum(values).tobytes()

    @pytest.mark.parametrize("name", ["MSRsrc11", "HPc6t5d1", "TPCdisk66"])
    def test_no_arrival_kept_is_an_empty_valid_trace(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = generate_trace(name, duration=1e-9, seed=0)
        assert len(ours) == 0 and ours.duration == 0.0
        assert ours.times.dtype == np.float64 and ours.lbns.dtype == np.int64
        assert_same_trace(ours, both_ways(name, 1e-9, 0)[1])


class TestDeferredColumns:
    """Addresses and write flags are drawn on first read, from the
    stream's state after the sizes: the same bits as the eager draw."""

    def test_idle_extraction_and_search_draw_no_address(self, monkeypatch, tmp_path):
        """The Table III pipeline reads arrival times and sizes only."""
        from repro.analysis.service_model import ScrubServiceModel
        from repro.core.search import SuccessiveHalvingSearch
        from repro.disk.models import PRESETS
        from repro.parallel import SweepRunner
        from repro.parallel.cache import ResultCache

        calls = []
        addresses = SyntheticTraceGenerator._addresses

        def spy(self, sectors):
            calls.append(len(sectors))
            return addresses(self, sectors)

        monkeypatch.setattr(SyntheticTraceGenerator, "_addresses", spy)
        model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
        for name in ("TPCdisk66", "MSRsrc11"):
            trace = generate_trace(name, duration=600.0, seed=1)
            _, durations = trace_idle_intervals(name, trace)
            runner = SweepRunner(workers=0, cache=ResultCache(tmp_path / name))
            SuccessiveHalvingSearch(
                durations, len(trace), trace.duration, model
            ).search(0.002, runner=runner)
            assert calls == [], name
            trace.digest()  # reads every column: the draw runs, once
            trace.lbns, trace.is_write
            assert calls == [len(trace)], name
            calls.clear()

    @pytest.mark.parametrize("name", ["MSRsrc11", "TPCdisk66", "HPc6t5d1"])
    def test_drawing_from_the_stream_before_the_first_read(self, name):
        """The caller's stream stands after the sizes, and drawing from
        it moves no column."""
        generator = catalog_generator(name, 600, 7)
        trace = generator.generate()
        after_sizes = catalog_generator(name, 600, 7)
        p = after_sizes.profile
        times = (
            after_sizes._poisson_times() if p.memoryless
            else after_sizes._bursty_times()
        )
        synth._categorical(
            after_sizes.rng, np.asarray(p.size_weights) / np.sum(p.size_weights),
            len(times),
        )
        assert generator.rng.random() == after_sizes.rng.random()
        generator.rng.random(len(trace))
        generator.rng.normal(size=1000)
        assert_same_trace(trace, _one_shot_generate(catalog_generator(name, 600, 7)))

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda trace: pickle.loads(pickle.dumps(trace)),
    ], ids=["deepcopy", "pickle"])
    def test_an_undrawn_trace_copies(self, clone):
        trace = generate_trace("MSRusr2", duration=600, seed=3)
        twin = clone(trace)
        assert_same_trace(twin, generate_trace("MSRusr2", duration=600, seed=3))
        assert_same_trace(trace, twin)


def traced_peak(name, duration):
    """(trace, tracemalloc peak in bytes) of one ``generate_trace`` and
    the first read of its addresses and write flags."""
    tracemalloc.start()
    try:
        trace = generate_trace(name, duration=duration, seed=7)
        trace.lbns, trace.is_write
        return trace, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthesisWorkingMemory:
    """Allocation peaks (deterministic; numpy reports to tracemalloc).

    The one-shot code held eight arrays as long as the whole draw: 97 MB
    for the 9 MB MSRsrc11 trace, 30 MB for the 2 MB MSRusr2 one.  The
    bursty bounds include the output buffer, sized for the draw and
    mostly never touched."""

    MB = 1 << 20

    def test_six_hours_of_msrsrc11(self):
        trace, peak = traced_peak("MSRsrc11", 21_600)
        assert len(trace) == 381_774
        assert peak <= 30 * self.MB

    def test_cli_default_msrusr2(self):
        trace, peak = traced_peak("MSRusr2", 14_400)
        assert len(trace) == 82_867
        assert peak <= 15 * self.MB

    def test_memoryless_trace_within_three_times_its_columns(self):
        trace, peak = traced_peak("TPCdisk66", 600)
        columns = sum(
            column.nbytes
            for column in (trace.times, trace.lbns, trace.sectors, trace.is_write)
        )
        assert peak <= 3 * columns


class TestRunDryWarning:
    """The burst estimate ignores the hour profile; a trace that ends
    before its ``duration`` because the draw ran out now says so."""

    def test_hp_cello_at_the_cli_default_duration(self):
        with pytest.warns(RuntimeWarning, match=r"'HPc6t8d0' ran out .* 14400 s"):
            trace = generate_trace("HPc6t8d0", duration=4 * 3600.0)
        assert trace.times[-1] < 0.65 * 4 * 3600.0  # nothing after ~2.5 h

    def test_poisson_margin_too_short(self):
        """``1.05 x + 10`` gaps for ``x`` expected arrivals is a 1.4 sigma
        margin at a few arrivals a second: some seeds keep every gap."""
        rate = CATALOG["TPCdisk66"].profile.rate * 0.01
        drawn = int(rate * 20 * 1.05) + 10
        dry = next(
            seed for seed in range(100)
            if len(both_ways("TPCdisk66", 20, seed, rate=rate)[1]) == drawn
        )
        with pytest.warns(RuntimeWarning, match="'TPCdisk66' ran out"):
            trace = generate_trace(
                "TPCdisk66", duration=20, seed=dry, rate_scale=0.01
            )
        assert len(trace) == drawn and trace.times[-1] < 20

    @pytest.mark.parametrize("name, duration, seed", [
        ("MSRsrc11", 21_600, 7), ("TPCdisk66", 600, 7),
        *((name, 60, 0) for name in sorted(CATALOG)),
    ])
    def test_silent_when_the_duration_is_reached(self, name, duration, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_trace(name, duration=duration, seed=seed)


class TestCountedDraw:
    """``_categorical`` against the ``Generator.choice(p=...)`` it replaced."""

    @staticmethod
    def assert_counted_is_choice(weights, size, seed):
        probabilities = np.asarray(weights, dtype=float)
        probabilities = probabilities / probabilities.sum()
        ours_rng = np.random.default_rng(seed)
        choice_rng = np.random.default_rng(seed)
        ours = synth._categorical(ours_rng, probabilities, size)
        reference = choice_rng.choice(len(probabilities), size, p=probabilities)
        assert ours.dtype == reference.dtype
        assert ours.shape == reference.shape == (size,)
        assert ours.tobytes() == reference.tobytes()
        assert ours_rng.random() == choice_rng.random()  # the stream stands

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-9, 1e9)),
            min_size=1, max_size=9,
        ).filter(lambda w: sum(w) > 0),
        size=st.one_of(st.integers(0, 64), st.integers(0, 100_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counted_draw_is_choice(self, weights, size, seed):
        self.assert_counted_is_choice(weights, size, seed)

    @pytest.mark.parametrize("weights", [
        (0.0, 0.3, 0.7),  # a zero first edge: every uniform reaches it
        (0.3, 0.7, 0.0),  # a zero last weight: an edge at 1.0
        (0.0, 0.0, 1.0, 0.0, 0.0),
        (0.2, 0.0, 0.0, 0.5, 0.3),  # repeated edges
        (1.0,),  # no interior edge: only the uniforms are drawn
        (0.3, 0.25, 0.2, 0.15, 0.1),  # the default sizes
        (0.5, 0.3, 0.2),  # the default hot spots
        (1e-12, 1.0, 1e-12),
    ])
    @pytest.mark.parametrize("size", [0, 1, 100_000])
    def test_edge_weights(self, weights, size):
        self.assert_counted_is_choice(weights, size, seed=size + len(weights))

    def test_a_uniform_on_an_edge_is_counted_past_it(self):
        """``choice`` searches with ``side="right"``: a uniform equal to an
        edge takes the index after it, as ``uniform >= edge`` counts it."""
        cdf = np.cumsum([0.25, 0.0, 0.25, 0.5])
        cdf /= cdf[-1]
        edges = np.concatenate((cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0]))

        class Fixed:
            def random(self, size):
                assert size == len(edges)
                return edges.copy()

        ours = synth._categorical(Fixed(), np.diff(cdf, prepend=0.0), len(edges))
        assert ours.tolist() == cdf.searchsorted(edges, side="right").tolist()

    @pytest.mark.parametrize("field, weights", [
        ("size_weights", (0.3, -0.1, 0.2, 0.4, 0.2)),
        ("size_weights", (0.0, 0.0, 0.0, 0.0, 0.0)),
        ("hot_spots", ((0.1, 0.1, 0.5), (0.5, 0.1, -0.2), (0.9, 0.1, 0.7))),
        ("hot_spots", ((0.1, 0.1, 0.0), (0.5, 0.1, 0.0))),
    ])
    def test_negative_or_all_zero_weights_raise(self, field, weights):
        profile = TraceProfile(name="w", duration=60.0, **{field: weights})
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            make_generator(profile).generate()


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
        # The second request arrives as the first completes: no interval.
        times = np.array([0.0, 0.125, 10.0])
        service = np.full(3, 0.125)
        _, durations = idle_intervals(times, service)
        assert list(durations) == [10.0 - 0.25]

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
