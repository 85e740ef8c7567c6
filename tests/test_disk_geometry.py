"""Tests for zoned disk geometry (repro.disk.geometry)."""

import pytest

from repro.disk import DiskGeometry, Zone


@pytest.fixture
def simple():
    """2 heads; zone0: 2 cyls x 10 spt, zone1: 3 cyls x 6 spt."""
    return DiskGeometry(heads=2, zones=[Zone(2, 10), Zone(3, 6)], track_skew=0.0)


def test_total_sectors(simple):
    assert simple.total_sectors == 2 * 2 * 10 + 3 * 2 * 6


def test_capacity_bytes(simple):
    assert simple.capacity_bytes == simple.total_sectors * 512


def test_cylinder_and_track_counts(simple):
    assert simple.cylinders == 5
    assert simple.locate(simple.total_sectors - 1).track_index == 10 - 1


def test_locate_first_sector(simple):
    loc = simple.locate(0)
    assert (loc.cylinder, loc.head, loc.sector) == (0, 0, 0)
    assert loc.sectors_per_track == 10
    assert loc.track_index == 0


def test_locate_head_advances_within_cylinder(simple):
    loc = simple.locate(10)  # first sector of second surface
    assert (loc.cylinder, loc.head, loc.sector) == (0, 1, 0)
    assert loc.track_index == 1


def test_locate_cylinder_advances(simple):
    loc = simple.locate(20)
    assert (loc.cylinder, loc.head, loc.sector) == (1, 0, 0)


def test_locate_second_zone(simple):
    # Zone 0 holds 40 sectors; LBN 40 starts zone 1 (6 spt).
    loc = simple.locate(40)
    assert (loc.cylinder, loc.head, loc.sector) == (2, 0, 0)
    assert loc.sectors_per_track == 6
    assert loc.track_index == 4


def test_locate_last_sector(simple):
    loc = simple.locate(simple.total_sectors - 1)
    assert loc.cylinder == 4
    assert loc.head == 1
    assert loc.sector == 5


def test_locate_out_of_range(simple):
    with pytest.raises(ValueError):
        simple.locate(simple.total_sectors)
    with pytest.raises(ValueError):
        simple.locate(-1)


def test_zone_of_cylinder(simple):
    # Cylinders 0-1 are zone 0 (10 spt), 2-4 zone 1 (6 spt); 20 sectors
    # a cylinder in zone 0, 12 in zone 1.
    for lbn, cylinder, spt in ((0, 0, 10), (20, 1, 10), (40, 2, 6), (64, 4, 6)):
        loc = simple.locate(lbn)
        assert (loc.cylinder, loc.sectors_per_track) == (cylinder, spt)


def test_angle_without_skew(simple):
    loc = simple.locate(5)
    assert simple.angle_of(loc) == pytest.approx(0.5)


def test_angle_with_skew():
    geo = DiskGeometry(heads=2, zones=[Zone(2, 10)], track_skew=0.25)
    loc = geo.locate(10)  # track 1, sector 0
    assert geo.angle_of(loc) == pytest.approx(0.25)
    loc2 = geo.locate(35)  # track 3 (cyl 1, head 1), sector 5
    assert geo.angle_of(loc2) == pytest.approx((0.5 + 3 * 0.25) % 1.0)


def test_sectors_per_track_at(simple):
    assert simple.locate(0).sectors_per_track == 10
    assert simple.locate(39).sectors_per_track == 10
    assert simple.locate(40).sectors_per_track == 6


def test_uniform_constructor():
    geo = DiskGeometry.uniform(heads=4, cylinders=100, sectors_per_track=50)
    assert geo.total_sectors == 4 * 100 * 50
    assert len(geo.zones) == 1


def test_zoned_constructor_interpolates():
    geo = DiskGeometry.zoned(
        heads=2, cylinders=100, outer_spt=100, inner_spt=50, num_zones=6
    )
    spts = [z.sectors_per_track for z in geo.zones]
    assert spts[0] == 100
    assert spts[-1] == 50
    assert spts == sorted(spts, reverse=True)
    assert sum(z.cylinders for z in geo.zones) == 100


def test_zoned_single_zone():
    geo = DiskGeometry.zoned(
        heads=2, cylinders=10, outer_spt=100, inner_spt=50, num_zones=1
    )
    assert geo.zones[0].sectors_per_track == 100


def test_lbn_mapping_is_bijective_over_sample():
    geo = DiskGeometry(heads=3, zones=[Zone(4, 7), Zone(2, 5)], track_skew=0.1)
    seen = set()
    for lbn in range(geo.total_sectors):
        loc = geo.locate(lbn)
        key = (loc.cylinder, loc.head, loc.sector)
        assert key not in seen
        seen.add(key)
    assert len(seen) == geo.total_sectors


def test_invalid_parameters():
    with pytest.raises(ValueError):
        DiskGeometry(heads=0, zones=[Zone(1, 1)])
    with pytest.raises(ValueError):
        DiskGeometry(heads=1, zones=[])
    with pytest.raises(ValueError):
        DiskGeometry(heads=1, zones=[Zone(1, 1)], track_skew=1.0)
    with pytest.raises(ValueError):
        Zone(0, 10)
    with pytest.raises(ValueError):
        Zone(10, 0)
    with pytest.raises(ValueError):
        DiskGeometry.zoned(heads=1, cylinders=2, outer_spt=10, inner_spt=5,
                           num_zones=3)
