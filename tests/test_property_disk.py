"""Property-based tests for the disk substrate (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.disk import DiskCommand, DiskGeometry, Drive, SeekModel, Zone
from repro.disk.cache import DiskCache
from repro.disk.models import hitachi_ultrastar_15k450

geometries = st.builds(
    DiskGeometry,
    heads=st.integers(1, 8),
    zones=st.lists(
        st.builds(
            Zone,
            cylinders=st.integers(1, 20),
            sectors_per_track=st.integers(1, 50),
        ),
        min_size=1,
        max_size=4,
    ),
    track_skew=st.floats(0.0, 0.99),
)


class TestGeometryProperties:
    @given(geometry=geometries, data=st.data())
    @settings(max_examples=200)
    def test_locate_roundtrip_is_injective(self, geometry, data):
        """Two distinct LBNs never map to the same physical location."""
        lbn_a = data.draw(st.integers(0, geometry.total_sectors - 1))
        lbn_b = data.draw(st.integers(0, geometry.total_sectors - 1))
        loc_a, loc_b = geometry.locate(lbn_a), geometry.locate(lbn_b)
        key_a = (loc_a.cylinder, loc_a.head, loc_a.sector)
        key_b = (loc_b.cylinder, loc_b.head, loc_b.sector)
        assert (lbn_a == lbn_b) == (key_a == key_b)

    @given(geometry=geometries, data=st.data())
    @settings(max_examples=200)
    def test_locate_fields_in_range(self, geometry, data):
        lbn = data.draw(st.integers(0, geometry.total_sectors - 1))
        loc = geometry.locate(lbn)
        assert 0 <= loc.cylinder < geometry.cylinders
        assert 0 <= loc.head < geometry.heads
        assert 0 <= loc.sector < loc.sectors_per_track
        assert 0 <= loc.track_index < geometry.cylinders * geometry.heads
        assert 0.0 <= geometry.angle_of(loc) < 1.0

    @given(geometry=geometries)
    @settings(max_examples=100)
    def test_sequential_lbns_are_physically_contiguous(self, geometry):
        """Consecutive LBNs on the same track differ by one sector."""
        for lbn in range(min(geometry.total_sectors - 1, 64)):
            a, b = geometry.locate(lbn), geometry.locate(lbn + 1)
            if a.track_index == b.track_index:
                assert b.sector == a.sector + 1


class TestSeekProperties:
    @given(
        t2t=st.floats(1e-5, 1e-3),
        gap1=st.floats(1e-4, 5e-3),
        gap2=st.floats(1e-4, 5e-3),
        cylinders=st.integers(100, 200_000),
    )
    @settings(max_examples=150)
    def test_seek_times_anchor_and_stay_positive(
        self, t2t, gap1, gap2, cylinders
    ):
        average = t2t + gap1
        full = average + gap2
        model = SeekModel.from_specs(t2t, average, full, cylinders)
        assert model.time(0) == 0.0
        assert model.time(1) == pytest.approx(t2t, rel=1e-6)
        assert model.time(cylinders - 1) == pytest.approx(full, rel=1e-6)
        for distance in (1, 2, 10, cylinders // 2, cylinders - 1):
            assert model.time(distance) >= 0.0


class TestCacheProperties:
    @given(
        inserts=st.lists(
            st.tuples(st.integers(0, 5000), st.integers(1, 200)),
            min_size=1,
            max_size=30,
        ),
        probe=st.tuples(st.integers(0, 5000), st.integers(1, 200)),
    )
    @settings(max_examples=200)
    def test_hits_only_for_inserted_data(self, inserts, probe):
        """A hit implies the probed range was covered by some insert's
        data-plus-read-ahead window (no phantom data)."""
        cache = DiskCache(num_segments=4, segment_sectors=10_000,
                          read_ahead_sectors=100)
        windows = []
        for i, (lbn, sectors) in enumerate(inserts):
            cache.insert(lbn, sectors, now=float(i), fill_rate=1e9)
            windows.append((lbn, lbn + sectors + 100))
        lbn, sectors = probe
        ready = cache.lookup(lbn, sectors, now=1e6)
        if ready is not None:
            assert any(
                start <= lbn and lbn + sectors <= end + 100
                for start, end in windows
            )

    @given(
        segments=st.integers(1, 8),
        ops=st.lists(st.integers(0, 100_000), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_segment_count_never_exceeds_capacity(self, segments, ops):
        cache = DiskCache(num_segments=segments, segment_sectors=1000,
                          read_ahead_sectors=10)
        for i, lbn in enumerate(ops):
            cache.insert(lbn, 8, now=float(i), fill_rate=1e9)
            assert len(cache) <= segments


class TestDriveProperties:
    @given(
        commands=st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "verify"]),
                st.integers(0, 1000),  # lbn bucket
                st.integers(1, 64),  # sectors
                st.floats(0.0, 0.01),  # think time
            ),
            min_size=1,
            max_size=25,
        ),
        cache_enabled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_always_advances_and_breakdown_adds_up(
        self, commands, cache_enabled
    ):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=cache_enabled)
        now = 0.0
        for op, bucket, sectors, think in commands:
            lbn = bucket * (drive.total_sectors // 1001)
            command = getattr(DiskCommand, op)(lbn, sectors)
            breakdown = drive.service(command, now)
            assert breakdown.finish > now
            assert breakdown.total == pytest.approx(
                breakdown.overhead
                + breakdown.seek
                + breakdown.rotation
                + breakdown.transfer,
                abs=1e-12,
            )
            assert breakdown.seek >= 0
            assert breakdown.rotation >= 0
            assert breakdown.transfer >= 0
            now = breakdown.finish + think

    @given(sectors=st.integers(1, 4096))
    @settings(max_examples=40, deadline=None)
    def test_verify_duration_bounded_by_mechanics(self, sectors):
        """A VERIFY can never finish faster than its media transfer nor
        slower than full-stroke seek + one rotation per track touched."""
        drive = Drive(hitachi_ultrastar_15k450())
        breakdown = drive.service(
            DiskCommand.verify(drive.total_sectors // 2, sectors), 0.0
        )
        spt = drive.geometry.locate(drive.total_sectors // 2).sectors_per_track
        period = drive.rotation.period
        min_time = (sectors / spt) * period * 0.5
        tracks = sectors // spt + 2
        max_time = (
            drive.spec.full_stroke_seek
            + tracks * (period + drive.spec.head_switch_time)
            + (sectors / spt) * period
            + 0.01
        )
        assert min_time <= breakdown.total <= max_time
