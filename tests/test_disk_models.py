"""Tests for the drive presets (repro.disk.models)."""

import pytest

from repro.disk import Drive, Interface
from repro.disk.models import (
    PRESETS,
    fujitsu_map3367np,
    fujitsu_max3073rc,
    hitachi_deskstar_7k1000,
    hitachi_ultrastar_15k450,
    wd_caviar_blue,
)


class TestPresets:
    def test_registry_contains_all_paper_drives(self):
        assert set(PRESETS) == {
            "ultrastar", "max3073rc", "map3367np", "caviar", "deskstar",
        }

    @pytest.mark.parametrize("factory,capacity_gb", [
        (hitachi_ultrastar_15k450, 300),
        (fujitsu_max3073rc, 73),
        (fujitsu_map3367np, 36),
        (wd_caviar_blue, 320),
        (hitachi_deskstar_7k1000, 1000),
    ])
    def test_capacities_match_datasheets(self, factory, capacity_gb):
        spec = factory()
        assert spec.capacity_bytes == pytest.approx(capacity_gb * 1e9, rel=0.05)
        drive = Drive(spec)
        assert drive.capacity_bytes == pytest.approx(
            spec.capacity_bytes, rel=0.02
        )

    def test_ata_drives_have_the_bug_scsi_do_not(self):
        for factory in (wd_caviar_blue, hitachi_deskstar_7k1000):
            spec = factory()
            assert spec.interface is Interface.ATA
            assert spec.ata_verify_cache_bug
        for factory in (
            hitachi_ultrastar_15k450, fujitsu_max3073rc, fujitsu_map3367np
        ):
            spec = factory()
            assert spec.interface is Interface.SCSI
            assert not spec.ata_verify_cache_bug

    def test_seek_specs_are_ordered(self):
        for factory in PRESETS.values():
            spec = factory()
            assert (
                0
                < spec.track_to_track_seek
                < spec.average_seek
                < spec.full_stroke_seek
            ), spec.name

    def test_media_rate_plausible(self):
        """Outer-track media rates land in the 60–200 MB/s band the
        paper-era drives actually had."""
        for factory in PRESETS.values():
            drive = Drive(factory())
            spt = drive.geometry.locate(0).sectors_per_track
            rate = spt * 512 / drive.rotation.period
            assert 50e6 < rate < 250e6, factory().name

    def test_with_overrides_replaces_fields(self):
        spec = hitachi_ultrastar_15k450().with_overrides(rpm=10000, heads=2)
        assert spec.rpm == 10000
        assert spec.heads == 2
        # Untouched fields survive.
        assert spec.name == hitachi_ultrastar_15k450().name

    def test_rotation_period_property(self):
        assert hitachi_deskstar_7k1000().rotation_period == pytest.approx(
            60.0 / 7200
        )
