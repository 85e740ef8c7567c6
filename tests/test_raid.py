"""Tests for the RAID substrate (repro.raid)."""

import numpy as np
import pytest

from repro.core import SequentialScrub, Scrubber
from repro.core.mlet import sector_visit_times
from repro.disk import (
    CommandStatus,
    DiskCommand,
    Drive,
    hitachi_ultrastar_15k450,
    wd_caviar_blue,
)
from repro.disk.models import DriveSpec
from repro.faults import ErrorEventKind, FaultPlan, MediaFaults, SectorError
from repro.raid import RaidArray, RaidGeometry, RaidLevel, RebuildRiskModel
from repro.sched import BlockDevice, IORequest, NoopScheduler
from repro.sim import Simulation


def tiny_spec() -> DriveSpec:
    return hitachi_ultrastar_15k450().with_overrides(
        cylinders=30, outer_spt=64, inner_spt=64, num_zones=1, heads=2,
        average_seek=1e-3, full_stroke_seek=2e-3,
    )


def make_array(level=RaidLevel.RAID5, disks=3, chunk=16, spec=None,
               cache_enabled=False):
    sim = Simulation()
    devices = [
        BlockDevice(
            sim, Drive(spec or tiny_spec(), cache_enabled=cache_enabled),
            NoopScheduler(),
        )
        for _ in range(disks)
    ]
    disk_sectors = devices[0].drive.total_sectors
    disk_sectors -= disk_sectors % chunk
    geometry = RaidGeometry(level, disks, chunk, disk_sectors)
    array = RaidArray(sim, devices, geometry)
    return sim, array


def plant(array, disk, lbn, sectors=1, time=0.0):
    """Give member ``disk`` latent errors on ``[lbn, lbn + sectors)``,
    all setting in at ``time``; returns the drive's fault state."""
    drive = array.devices[disk].drive
    plan = FaultPlan(
        total_sectors=drive.total_sectors,
        horizon=time + 1.0,
        errors=tuple(
            SectorError(time=time, lbn=bad) for bad in range(lbn, lbn + sectors)
        ),
    )
    faults = MediaFaults(plan)
    drive.install_faults(faults)
    return faults


class TestGeometry:
    def test_capacity_raid5(self):
        geo = RaidGeometry(RaidLevel.RAID5, 4, 16, 160)
        assert geo.data_disks == 3
        assert geo.total_data_sectors == 160 * 3

    def test_capacity_raid1(self):
        geo = RaidGeometry(RaidLevel.RAID1, 2, 16, 160)
        assert geo.total_data_sectors == 160

    def test_parity_rotates(self):
        geo = RaidGeometry(RaidLevel.RAID5, 4, 16, 160)
        parities = [geo.parity_disk(s) for s in range(8)]
        assert parities == [3, 2, 1, 0, 3, 2, 1, 0]

    def test_raid0_has_no_parity(self):
        geo = RaidGeometry(RaidLevel.RAID0, 2, 16, 160)
        with pytest.raises(ValueError):
            geo.parity_disk(0)

    def test_map_read_within_chunk(self):
        geo = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        chunks = geo.map_read(4, 8)
        assert len(chunks) == 1
        assert chunks[0].lbn == 4
        assert chunks[0].sectors == 8

    def test_map_read_spans_chunks_and_covers_extent(self):
        geo = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        chunks = geo.map_read(10, 30)
        assert sum(c.sectors for c in chunks) == 30
        offsets = [c.logical_offset for c in chunks]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0

    def test_map_read_never_touches_parity_disk(self):
        geo = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        for lbn in range(0, geo.total_data_sectors - 16, 7):
            for chunk in geo.map_read(lbn, 16):
                stripe = chunk.lbn // geo.chunk_sectors
                assert chunk.disk != geo.parity_disk(stripe)

    def test_map_write_includes_parity(self):
        geo = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        writes = geo.map_write(0, 16)
        parity = [c for c in writes if c.logical_offset == -1]
        assert len(parity) == 1
        assert parity[0].disk == geo.parity_disk(0)

    def test_map_write_raid1_mirrors(self):
        geo = RaidGeometry(RaidLevel.RAID1, 2, 16, 160)
        writes = geo.map_write(0, 16)
        assert {c.disk for c in writes} == {0, 1}

    def test_stripe_members(self):
        geo = RaidGeometry(RaidLevel.RAID5, 4, 16, 160)
        members = geo.stripe_members(2)
        assert len(members) == 4
        assert {m.disk for m in members} == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID5, 2, 16, 160)
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID1, 3, 16, 160)
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID0, 1, 16, 160)
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID5, 3, 16, 170)  # not chunk-aligned
        geo = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        with pytest.raises(ValueError):
            geo.map_read(geo.total_data_sectors, 1)
        with pytest.raises(ValueError):
            geo.stripe_members(geo.stripes)


class TestRaidArray:
    def test_read_completes(self):
        sim, array = make_array()
        done = array.read(0, 64)
        sim.run(until=done)
        assert array.data_loss_events == 0

    def test_write_touches_parity_disk(self):
        sim, array = make_array()
        done = array.write(0, 16)
        sim.run(until=done)
        touched = {
            r.command.lbn
            for device in array.devices
            for r in device.log.requests()
        }
        total = sum(len(device.log.requests()) for device in array.devices)
        assert total == 2  # data chunk + parity chunk

    def test_read_detects_and_repairs_lse(self):
        sim, array = make_array()
        # Logical [0, 16) is disk 0's chunk [0, 16) (parity is on disk 2).
        faults = plant(array, 0, 4, 2)
        done = array.read(0, 64)
        sim.run(until=done)
        assert array.errors_detected_by_read == 2
        assert array.errors_repaired == 2
        assert array.data_loss_events == 0
        assert faults.active_count == 0
        assert faults.remapped_count == 2

    def test_write_overwrites_lse(self):
        sim, array = make_array()
        faults = plant(array, 0, 0, 4)
        done = array.write(0, 16)
        sim.run(until=done)
        assert faults.active_count == 0
        # New data needs no reconstruction: nothing detected, nothing lost.
        assert array.errors_repaired == 0
        assert array.data_loss_events == 0

    def test_raid0_read_of_bad_sector_is_data_loss(self):
        sim, array = make_array(level=RaidLevel.RAID0, disks=2)
        plant(array, 0, 0, 1)
        done = array.read(0, 16)
        sim.run(until=done)
        assert array.data_loss_events == 1

    def test_scrubber_on_member_repairs_errors(self):
        sim, array = make_array()
        faults = plant(array, 1, 100, 5)
        scrubber = Scrubber(
            sim, array.devices[1], SequentialScrub(), max_passes=1
        )
        process = scrubber.start()
        sim.run(until=process)
        assert array.errors_detected_by_scrub == 5
        assert array.errors_repaired == 5
        assert faults.active_count == 0

    def test_fail_and_rebuild_clean(self):
        sim, array = make_array()
        array.fail_disk(1)
        done = array.rebuild(request_sectors=256)
        lost = sim.run(until=done)
        assert lost == 0
        assert array.failed is None

    def test_rebuild_counts_unrecoverable_sectors(self):
        sim, array = make_array()
        faults = plant(array, 0, 50, 3)  # latent errors on a survivor
        array.fail_disk(1)
        done = array.rebuild(request_sectors=256)
        lost = sim.run(until=done)
        assert lost == 3
        assert array.data_loss_events == 3
        assert faults.active_count == 0  # remapped after the loss

    def test_a_failed_disk_comes_back_clean(self):
        sim, array = make_array()
        plant(array, 1, 50, 3)
        array.fail_disk(1)
        assert array.devices[1].drive.faults is None
        lost = sim.run(until=array.rebuild())
        assert lost == 0
        done = array.read(0, array.geometry.total_data_sectors)
        sim.run(until=done)
        assert array.errors_detected_by_read == 0

    def test_an_ata_verify_served_from_cache_detects_nothing(self):
        """Paper Fig. 1 on the array: a VERIFY the drive answers from its
        cache masks a real latent error, which the rebuild then loses."""
        spec = wd_caviar_blue().with_overrides(
            cylinders=30, outer_spt=64, inner_spt=64, num_zones=1, heads=2,
            average_seek=1e-3, full_stroke_seek=2e-3,
        )
        sim, array = make_array(spec=spec, cache_enabled=True)
        faults = plant(array, 0, 10, time=0.5)
        device = array.devices[0]
        # A READ caches [0, 64) on disk 0 while the sector is healthy.
        sim.run(until=device.submit(IORequest(DiskCommand.read(0, 64))))
        sim.run(until=0.6)
        verify = IORequest(DiskCommand.verify(0, 64), source="scrubber")
        sim.run(until=device.submit(verify))
        assert verify.breakdown.cache_hit
        assert verify.status is CommandStatus.GOOD
        masked = faults.log.by_kind(ErrorEventKind.CACHE_MASKED)
        assert [record.lbn for record in masked] == [10]
        assert array.errors_detected_by_scrub == 0
        assert faults.active_count == 1
        array.fail_disk(1)
        assert sim.run(until=array.rebuild()) == 1
        assert array.data_loss_events == 1

    def test_degraded_read_uses_survivors(self):
        sim, array = make_array()
        array.fail_disk(0)
        done = array.read(0, array.geometry.chunk_sectors * 2)
        sim.run(until=done)
        assert len(array.devices[0].log.requests()) == 0

    def test_double_failure_rejected(self):
        _, array = make_array()
        array.fail_disk(0)
        with pytest.raises(RuntimeError):
            array.fail_disk(1)

    def test_raid0_cannot_fail(self):
        _, array = make_array(level=RaidLevel.RAID0, disks=2)
        with pytest.raises(RuntimeError):
            array.fail_disk(0)

    def test_rebuild_without_failure_rejected(self):
        _, array = make_array()
        with pytest.raises(RuntimeError):
            array.rebuild()

    def test_member_count_checked(self):
        sim = Simulation()
        devices = [
            BlockDevice(sim, Drive(tiny_spec()), NoopScheduler())
            for _ in range(2)
        ]
        geometry = RaidGeometry(RaidLevel.RAID5, 3, 16, 160)
        with pytest.raises(ValueError):
            RaidArray(sim, devices, geometry)


class TestRebuildRisk:
    def _model(self, regions=None):
        from repro.core import StaggeredScrub

        total = 50_000
        algorithm = StaggeredScrub(regions) if regions else SequentialScrub()
        visits, duration = sector_visit_times(algorithm, total, 128, 20e6)
        return RebuildRiskModel(
            visits, duration, burst_rate=0.5, mean_burst_length=2000.0,
            max_burst_length=10_000,
        )

    def test_risk_estimates_bounded(self):
        model = self._model()
        risk = model.simulate(np.random.default_rng(0), trials=200)
        assert 0.0 <= risk.loss_probability <= 1.0
        assert risk.expected_exposed_sectors >= 0.0
        assert risk.trials == 200

    def test_faster_scrubbing_lowers_risk(self):
        total = 50_000
        slow_alg, fast_alg = SequentialScrub(), SequentialScrub()
        slow_visits, slow_pass = sector_visit_times(slow_alg, total, 128, 5e6)
        fast_visits, fast_pass = sector_visit_times(fast_alg, total, 128, 50e6)
        slow = RebuildRiskModel(slow_visits, slow_pass, burst_rate=0.5,
                                mean_burst_length=2000.0)
        fast = RebuildRiskModel(fast_visits, fast_pass, burst_rate=0.5,
                                mean_burst_length=2000.0)
        rng = np.random.default_rng(1)
        horizon = 10 * slow_pass  # compare over identical horizons
        slow_risk = slow.simulate(rng, trials=300, horizon=horizon)
        fast_risk = fast.simulate(
            np.random.default_rng(1), trials=300, horizon=horizon
        )
        assert (
            fast_risk.expected_exposed_sectors
            < slow_risk.expected_exposed_sectors
        )

    def test_staggered_lowers_risk_for_bursts(self):
        sequential = self._model()
        staggered = self._model(regions=64)
        seq_risk = sequential.simulate(np.random.default_rng(2), trials=300)
        stag_risk = staggered.simulate(np.random.default_rng(2), trials=300)
        assert (
            stag_risk.expected_exposed_sectors
            < seq_risk.expected_exposed_sectors
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RebuildRiskModel(np.zeros(10), 0.0, 1e-3)
        with pytest.raises(ValueError):
            RebuildRiskModel(np.zeros(10), 1.0, 0.0)
        model = self._model()
        with pytest.raises(ValueError):
            model.simulate(np.random.default_rng(0), trials=0)
