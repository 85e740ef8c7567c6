"""Tests for the drive service model (repro.disk.drive)."""

import bisect
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.disk import (
    CommandStatus,
    DiskCommand,
    DiskGeometry,
    Drive,
    Interface,
    Opcode,
    ServiceBreakdown,
    fujitsu_map3367np,
    fujitsu_max3073rc,
    hitachi_deskstar_7k1000,
    hitachi_ultrastar_15k450,
    wd_caviar_blue,
)
from repro.disk.models import PRESETS
from repro.faults.plan import FaultPlan, SectorError
from repro.faults.state import MediaFaults

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the container ships hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture
def ultrastar():
    return Drive(hitachi_ultrastar_15k450())


@pytest.fixture
def caviar():
    return Drive(wd_caviar_blue())


def run_sequential(drive, opcode_factory, sectors, count, turnaround=5e-5):
    """Issue back-to-back sequential commands; return per-command times."""
    t, lbn, times = 0.0, 0, []
    for _ in range(count):
        br = drive.service(opcode_factory(lbn, sectors), t)
        times.append(br.total)
        t = br.finish + turnaround
        lbn += sectors
    return times


class TestBasics:
    def test_capacity_matches_spec_ballpark(self, ultrastar):
        assert ultrastar.capacity_bytes == pytest.approx(300e9, rel=0.03)

    def test_out_of_range_command_rejected(self, ultrastar):
        with pytest.raises(ValueError):
            ultrastar.service(
                DiskCommand.read(ultrastar.total_sectors - 1, 2), 0.0
            )

    def test_time_order_enforced(self, ultrastar):
        ultrastar.service(DiskCommand.read(0, 8), 10.0)
        with pytest.raises(ValueError):
            ultrastar.service(DiskCommand.read(0, 8), 5.0)

    def test_service_moves_head(self, ultrastar):
        target = ultrastar.total_sectors // 2
        ultrastar.service(DiskCommand.read(target, 8), 0.0)
        assert ultrastar.head_cylinder == ultrastar.geometry.locate(target).cylinder

    def test_breakdown_components_sum(self, ultrastar):
        br = ultrastar.service(
            DiskCommand.verify(ultrastar.total_sectors // 3, 128), 0.0
        )
        assert br.total == pytest.approx(
            br.overhead + br.seek + br.rotation + br.transfer
        )

    def test_media_rate_decreases_inward(self, ultrastar):
        # One revolution sweeps one track: the rate is proportional to
        # the sectors per track.
        locate = ultrastar.geometry.locate
        outer = locate(0).sectors_per_track
        inner = locate(ultrastar.total_sectors - 1).sectors_per_track
        assert outer > inner

    def test_commands_counted(self, ultrastar):
        ultrastar.service(DiskCommand.read(0, 8), 0.0)
        ultrastar.service(DiskCommand.read(8, 8), 1.0)
        assert ultrastar.commands_serviced == 2


class TestPaperFig1:
    """ATA VERIFY is served from the cache; SCSI VERIFY is not."""

    def test_sequential_scsi_verify_costs_a_rotation(self, ultrastar):
        times = run_sequential(ultrastar, DiskCommand.verify, 2, 30)
        period = ultrastar.rotation.period
        # Paper Fig. 1: SAS VERIFY response ~= rotation period (4.011 ms).
        assert np.mean(times[5:]) == pytest.approx(period, rel=0.05)

    def test_scsi_verify_insensitive_to_cache(self):
        on = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        off = Drive(hitachi_ultrastar_15k450(), cache_enabled=False)
        t_on = run_sequential(on, DiskCommand.verify, 128, 30)
        t_off = run_sequential(off, DiskCommand.verify, 128, 30)
        assert np.mean(t_on) == pytest.approx(np.mean(t_off), rel=0.01)

    def test_ata_verify_cache_bug_speeds_up_verify(self):
        on = Drive(wd_caviar_blue(), cache_enabled=True)
        off = Drive(wd_caviar_blue(), cache_enabled=False)
        t_on = run_sequential(on, DiskCommand.verify, 128, 100)
        t_off = run_sequential(off, DiskCommand.verify, 128, 100)
        # Paper Fig. 1: ~0.5 ms vs ~8.3 ms at 64 KB; an order of magnitude.
        assert np.mean(t_on[40:]) < np.mean(t_off[40:]) / 5

    def test_ata_verify_cache_off_costs_a_rotation(self):
        drive = Drive(wd_caviar_blue(), cache_enabled=False)
        times = run_sequential(drive, DiskCommand.verify, 2, 30)
        assert np.mean(times[5:]) == pytest.approx(
            drive.rotation.period, rel=0.06
        )

    def test_ata_bug_flag_controls_behaviour(self):
        spec = wd_caviar_blue().with_overrides(ata_verify_cache_bug=False)
        fixed = Drive(spec, cache_enabled=True)
        times = run_sequential(fixed, DiskCommand.verify, 128, 50)
        assert np.mean(times[5:]) == pytest.approx(
            fixed.rotation.period, rel=0.25
        )


class TestPaperFig4:
    """SCSI VERIFY service times stay flat below ~64 KB, then grow."""

    @pytest.mark.parametrize(
        "spec_factory",
        [hitachi_ultrastar_15k450, fujitsu_max3073rc, fujitsu_map3367np],
    )
    def test_flat_below_64k_then_rising(self, spec_factory):
        rng = np.random.default_rng(1)
        means = {}
        for size_kb in (1, 16, 64, 1024, 4096):
            drive = Drive(spec_factory())
            sectors = size_kb * 2
            t, samples = 0.0, []
            for _ in range(60):
                lbn = int(rng.integers(0, drive.total_sectors - sectors))
                br = drive.service(DiskCommand.verify(lbn, sectors), t)
                samples.append(br.total)
                t = br.finish + 5e-5
            means[size_kb] = float(np.mean(samples))
        assert means[16] == pytest.approx(means[1], rel=0.15)
        assert means[64] == pytest.approx(means[1], rel=0.25)
        assert means[1024] > 1.5 * means[64]
        assert means[4096] > 2.5 * means[1024]


class TestReadCaching:
    def test_sequential_reads_stream_from_cache(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        times = run_sequential(drive, DiskCommand.read, 128, 200, turnaround=1e-4)
        assert drive.cache.hits > 100
        # Streaming rate approaches the media rate, far above the
        # missed-rotation rate.
        throughput = 128 * 512 / np.mean(times[50:])
        assert throughput > 50e6

    def test_cache_disabled_reads_pay_rotation(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=False)
        times = run_sequential(drive, DiskCommand.read, 128, 50)
        throughput = 128 * 512 / np.mean(times[5:])
        assert throughput < 20e6

    def test_repeated_read_hits_cache(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        first = drive.service(DiskCommand.read(1000, 64), 0.0)
        second = drive.service(DiskCommand.read(1000, 64), first.finish + 1e-4)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.total < first.total

    def test_write_invalidates_cache(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        t = drive.service(DiskCommand.read(1000, 64), 0.0).finish + 1e-4
        t = drive.service(DiskCommand.write(1000, 64), t).finish + 1e-4
        third = drive.service(DiskCommand.read(1000, 64), t)
        assert not third.cache_hit

    def test_scsi_verify_does_not_pollute_cache(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        t = drive.service(DiskCommand.verify(1000, 64), 0.0).finish + 1e-4
        after = drive.service(DiskCommand.read(1000, 64), t)
        assert not after.cache_hit


class TestMultiTrackTransfers:
    def test_large_transfer_crosses_tracks(self, ultrastar):
        spt = ultrastar.geometry.locate(0).sectors_per_track
        br = ultrastar.service(DiskCommand.verify(0, spt * 3), 0.0)
        # Three track sweeps plus two switches: at least 3 revolutions.
        assert br.transfer >= 2.9 * ultrastar.rotation.period

    def test_skew_hides_head_switch(self, ultrastar):
        """With proper skew, crossing a track costs far less than a
        revolution of re-positioning."""
        spt = ultrastar.geometry.locate(0).sectors_per_track
        br = ultrastar.service(DiskCommand.verify(0, spt * 2), 0.0)
        # rotation component: initial positioning plus per-switch waits.
        assert br.rotation < 1.5 * ultrastar.rotation.period


class TestInterfaces:
    def test_presets_declare_expected_interfaces(self):
        assert hitachi_ultrastar_15k450().interface is Interface.SCSI
        assert wd_caviar_blue().interface is Interface.ATA
        assert hitachi_deskstar_7k1000().ata_verify_cache_bug

    def test_rotation_periods(self):
        assert hitachi_ultrastar_15k450().rotation_period == pytest.approx(4e-3)
        assert wd_caviar_blue().rotation_period == pytest.approx(8.333e-3, rel=1e-3)
        assert fujitsu_map3367np().rotation_period == pytest.approx(6e-3)


# -- the golden oracle: the per-command path as it was before it was tuned --
#
# Copied verbatim from the commit before ``ServiceBreakdown`` / ``Location``
# became ``NamedTuple``s, ``SeekModel.time`` left numpy and ``locate`` was
# inlined; only the class names differ.  ``_ReferenceDrive`` must compute
# the same bits as ``Drive`` on every command.


@dataclass(frozen=True)
class _ReferenceBreakdown:
    """Timing decomposition (and outcome) of one serviced command."""

    start: float
    finish: float
    overhead: float
    seek: float
    rotation: float
    transfer: float
    cache_hit: bool
    status: CommandStatus = CommandStatus.GOOD
    error_lbn: Optional[int] = None

    @property
    def total(self) -> float:
        return self.finish - self.start

    @property
    def ok(self) -> bool:
        return self.status is CommandStatus.GOOD


@dataclass(frozen=True)
class _ReferenceLocation:
    """Physical coordinates of an LBN."""

    cylinder: int
    head: int
    sector: int
    sectors_per_track: int
    track_index: int


class _ReferenceGeometry(DiskGeometry):
    def zone_of_lbn(self, lbn: int) -> int:
        """Index of the zone containing ``lbn``."""
        self._check_lbn(lbn)
        return bisect.bisect_right(self._zone_first_lbn, lbn) - 1

    def locate(self, lbn: int) -> _ReferenceLocation:
        """Map ``lbn`` to its physical :class:`Location`."""
        zi = self.zone_of_lbn(lbn)
        zone = self.zones[zi]
        offset = lbn - self._zone_first_lbn[zi]
        spt = zone.sectors_per_track
        sectors_per_cyl = spt * self.heads
        cyl_in_zone, rest = divmod(offset, sectors_per_cyl)
        head, sector = divmod(rest, spt)
        cylinder = self._zone_first_cyl[zi] + cyl_in_zone
        track_index = (
            self._zone_first_track[zi] + cyl_in_zone * self.heads + head
        )
        return _ReferenceLocation(
            cylinder=cylinder,
            head=head,
            sector=sector,
            sectors_per_track=spt,
            track_index=track_index,
        )

    def angle_of(self, location: _ReferenceLocation) -> float:
        """Angular position (fraction of a revolution) of a sector's start."""
        angle = (
            location.sector / location.sectors_per_track
            + location.track_index * self.track_skew
        )
        return angle % 1.0

    def sectors_per_track_at(self, lbn: int) -> int:
        """Sectors per track in the zone containing ``lbn``."""
        return self.zones[self.zone_of_lbn(lbn)].sectors_per_track

    def _check_lbn(self, lbn: int) -> None:
        if not 0 <= lbn < self._total_sectors:
            raise ValueError(
                f"LBN {lbn} out of range [0, {self._total_sectors})"
            )


@dataclass(frozen=True)
class _ReferenceSeek:
    a: float
    b: float
    c: float
    cylinders: int

    def time(self, distance: int) -> float:
        """Seek time in seconds for a move of ``distance`` cylinders."""
        if distance < 0:
            raise ValueError(f"negative seek distance: {distance}")
        if distance == 0:
            return 0.0
        t = self.a + self.b * np.sqrt(distance) + self.c * distance
        return float(max(t, 0.0))


@dataclass(frozen=True)
class _ReferenceRotation:
    """Constant-speed spindle."""

    rpm: float

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ValueError(f"rpm must be positive: {self.rpm}")

    @property
    def period(self) -> float:
        """Seconds per revolution."""
        return 60.0 / self.rpm

    def angle_at(self, time: float) -> float:
        """Platter angle (fraction of a revolution) at absolute ``time``."""
        return (time / self.period) % 1.0

    def latency_to(self, target_angle: float, time: float) -> float:
        """Seconds until the head is over ``target_angle``, from ``time``."""
        gap = (target_angle - self.angle_at(time)) % 1.0
        return gap * self.period

    def transfer_time(self, sectors: int, sectors_per_track: int) -> float:
        """Media time to sweep ``sectors`` contiguous sectors on one track."""
        if sectors < 0:
            raise ValueError(f"negative sector count: {sectors}")
        if sectors > sectors_per_track:
            raise ValueError(
                f"{sectors} sectors exceed one track ({sectors_per_track})"
            )
        return (sectors / sectors_per_track) * self.period


class _ReferenceDrive(Drive):
    """``Drive`` with the old mechanical model and the old service path;
    the cache, the fault state and everything else are shared code.
    One edit: ``service`` no longer calls the drive's per-command
    telemetry hook, which is gone from ``Drive``."""

    def __init__(self, spec, cache_enabled=True):
        super().__init__(spec, cache_enabled=cache_enabled)
        self.geometry = _ReferenceGeometry.zoned(
            heads=spec.heads,
            cylinders=spec.cylinders,
            outer_spt=spec.outer_spt,
            inner_spt=spec.inner_spt,
            num_zones=spec.num_zones,
            track_skew=spec.track_skew,
        )
        seek = self.seek_model
        self.seek_model = _ReferenceSeek(seek.a, seek.b, seek.c, seek.cylinders)
        self.rotation = _ReferenceRotation(spec.rpm)

    def service(self, command: DiskCommand, now: float) -> _ReferenceBreakdown:
        if command.end_lbn > self.total_sectors:
            raise ValueError(
                f"command {command} exceeds disk size {self.total_sectors}"
            )
        if now < self._last_issue_time:
            raise ValueError(
                f"commands must be issued in time order: {now} < "
                f"{self._last_issue_time}"
            )
        self._last_issue_time = now
        self.commands_serviced += 1

        breakdown = None
        if self._uses_cache_path(command):
            breakdown = self._try_cache(command, now)
        if breakdown is None:
            breakdown = self._media_access(command, now)
        return breakdown

    def _uses_cache_path(self, command: DiskCommand) -> bool:
        if not self.cache_enabled:
            return False
        if command.opcode is Opcode.READ:
            return True
        if command.opcode is Opcode.VERIFY:
            return (
                self.spec.interface is Interface.ATA
                and self.spec.ata_verify_cache_bug
            )
        return False

    def _try_cache(
        self, command: DiskCommand, now: float
    ) -> Optional[_ReferenceBreakdown]:
        t = now + self.spec.command_overhead
        ready = self.cache.lookup(command.lbn, command.sectors, t)
        if ready is None:
            return None
        t = max(t, ready)
        transfer = command.bytes / self.spec.interface_rate
        finish = t + transfer + self.spec.completion_overhead
        if self.faults is not None:
            for bad in self.faults.bad_in_range(
                command.lbn, command.sectors, now
            ):
                self.faults.log.record_cache_masked(
                    finish, bad, command.opcode.value
                )
        return _ReferenceBreakdown(
            start=now,
            finish=finish,
            overhead=self.spec.command_overhead + self.spec.completion_overhead,
            seek=0.0,
            rotation=max(0.0, ready - (now + self.spec.command_overhead)),
            transfer=transfer,
            cache_hit=True,
        )

    def _media_access(
        self, command: DiskCommand, now: float
    ) -> _ReferenceBreakdown:
        t = now + self.spec.command_overhead
        seek_total = rotation_total = transfer_total = 0.0

        lbn = command.lbn
        remaining = command.sectors
        current_track: Optional[int] = None
        while remaining > 0:
            loc = self.geometry.locate(lbn)
            if current_track is None:
                seek_time = self.seek_model.time(
                    abs(loc.cylinder - self.head_cylinder)
                )
            elif loc.cylinder != self.head_cylinder:
                seek_time = max(
                    self.seek_model.time(abs(loc.cylinder - self.head_cylinder)),
                    self.spec.head_switch_time,
                )
            else:
                seek_time = self.spec.head_switch_time
            t += seek_time
            seek_total += seek_time
            self.head_cylinder = loc.cylinder
            current_track = loc.track_index

            latency = self.rotation.latency_to(self.geometry.angle_of(loc), t)
            t += latency
            rotation_total += latency

            chunk = min(remaining, loc.sectors_per_track - loc.sector)
            sweep = self.rotation.transfer_time(chunk, loc.sectors_per_track)
            t += sweep
            transfer_total += sweep
            lbn += chunk
            remaining -= chunk

        media_end = t

        status = CommandStatus.GOOD
        error_lbn: Optional[int] = None
        if self.faults is not None:
            error_lbn = self.faults.first_bad(command.lbn, command.sectors, now)
            if error_lbn is not None:
                status = CommandStatus.MEDIUM_ERROR
                media_end += self.spec.media_error_retry_time
        finish = media_end + self.spec.completion_overhead

        if status is CommandStatus.MEDIUM_ERROR:
            self.cache.invalidate(command.lbn, command.sectors)
        elif self._uses_cache_path(command):
            zone_rate = self.geometry.sectors_per_track_at(
                command.lbn
            ) / self.rotation.period
            limit = None
            if self.faults is not None:
                end = command.end_lbn + self.cache.read_ahead_sectors
                limit = self.faults.limit_end(command.end_lbn, end, now)
            self.cache.insert(
                command.lbn,
                command.sectors,
                media_end,
                fill_rate=zone_rate,
                read_ahead=True,
                limit=limit,
            )
        elif command.opcode is Opcode.WRITE:
            self.cache.invalidate(command.lbn, command.sectors)

        return _ReferenceBreakdown(
            start=now,
            finish=finish,
            overhead=self.spec.command_overhead + self.spec.completion_overhead,
            seek=seek_total,
            rotation=rotation_total,
            transfer=transfer_total,
            cache_hit=False,
            status=status,
            error_lbn=error_lbn,
        )


def _draw_stream(spec, rng, length):
    """``length`` commands (opcode, lbn, sectors, idle gap before it) that
    mix sequential runs, re-reads, zone-boundary straddlers, commands
    ending at the last LBN and random seeks, 1 sector to 3 tracks long."""
    geometry = Drive(spec).geometry
    total = geometry.total_sectors
    boundaries = geometry._zone_first_lbn[1:]
    longest = 3 * spec.outer_spt
    opcodes = (Opcode.READ, Opcode.WRITE, Opcode.VERIFY)
    stream, lbn, sectors = [], 0, 1
    for _ in range(length):
        kind = rng.choice(["sequential", "again", "zone", "last", "random"])
        if kind != "again":
            sectors = int(rng.choice([1, 2, 8, 128, int(rng.integers(1, longest + 1))]))
        if kind == "sequential":
            lbn = lbn + sectors if lbn + 2 * sectors <= total else 0
        elif kind == "zone":
            lbn = int(rng.choice(boundaries)) - int(rng.integers(1, sectors + 1))
        elif kind == "last":
            lbn = total - sectors
        elif kind == "random":
            lbn = int(rng.integers(0, total - sectors + 1))
        opcode = opcodes[int(rng.choice(3, p=[0.5, 0.15, 0.35]))]
        gap = float(rng.choice([0.0, 5e-5, rng.exponential(2e-3), rng.uniform(0, 0.02)]))
        stream.append((opcode, lbn, sectors, gap))
    return stream


def _plan_for(stream, spec, cache_enabled, rng):
    """Latent errors for ``stream``: sectors bad from the start inside
    (or just past) a fifth of the commands, and sectors that go bad
    between one command's finish and the next command's start, so that
    a buffer hit on them is the ATA / read-cache masking path."""
    total = Drive(spec).geometry.total_sectors
    onsets = {}
    for _, lbn, sectors, _ in stream:
        if rng.random() < 0.2:
            onsets.setdefault(min(total - 1, lbn + int(rng.integers(0, sectors + 64))), 0.0)

    def plan():
        errors = sorted((time, lbn) for lbn, time in onsets.items())
        return FaultPlan(
            total_sectors=total,
            horizon=1.0 + max([time for time, _ in errors], default=0.0),
            errors=tuple(SectorError(time, lbn) for time, lbn in errors),
        )

    # When each command starts and finishes, read off the production drive.
    drive = Drive(spec, cache_enabled=cache_enabled)
    drive.install_faults(MediaFaults(plan()))
    now, spans = 0.0, []
    for opcode, lbn, sectors, gap in stream:
        finish = drive.service(DiskCommand(opcode, lbn, sectors), now).finish
        spans.append((now, finish))
        now = finish + gap
    for (_, finish), (_, lbn, sectors, _) in zip(spans, stream[1:]):
        if rng.random() < 0.5:
            onsets.setdefault(lbn + int(rng.integers(0, sectors)), finish)
    return plan()


def _same_bits(new, old):
    def key(value):
        return value.hex() if isinstance(value, float) else value

    fields = [
        "start", "finish", "overhead", "seek", "rotation", "transfer",
        "cache_hit", "status", "error_lbn", "total", "ok",
    ]
    return [key(getattr(new, name)) for name in fields] == [
        key(getattr(old, name)) for name in fields
    ]


def _segments(drive):
    return [
        (s.start, s.end, s.filled_boundary, s.ready_from.hex(),
         float(s.fill_rate).hex(), s.last_used.hex())
        for s in drive.cache.segments
    ]


def _check_against_reference(preset, cache_enabled, with_faults, seed):
    spec = PRESETS[preset]()
    rng = np.random.default_rng(seed)
    stream = _draw_stream(spec, rng, 60)
    plan = _plan_for(stream, spec, cache_enabled, rng) if with_faults else None
    new, old = Drive(spec, cache_enabled), _ReferenceDrive(spec, cache_enabled)
    if with_faults:
        new.install_faults(MediaFaults(plan))
        old.install_faults(MediaFaults(plan))
    now = 0.0
    for opcode, lbn, sectors, gap in stream:
        command = DiskCommand(opcode, lbn, sectors)
        got, want = new.service(command, now), old.service(command, now)
        assert type(got) is ServiceBreakdown
        assert _same_bits(got, want), (command, now, got, want)
        assert new.head_cylinder == old.head_cylinder
        assert _segments(new) == _segments(old)
        if got.error_lbn is not None and rng.random() < 0.5:
            assert new.reallocate(got.error_lbn, got.finish) == old.reallocate(
                want.error_lbn, want.finish
            )
        now = got.finish + gap
    assert (new.cache.hits, new.cache.misses) == (old.cache.hits, old.cache.misses)
    if with_faults:
        assert new.faults.log.records == old.faults.log.records


def _stream_property(test):
    """Drive ``test(preset, cache_enabled, with_faults, seed)`` with
    hypothesis or, without it, a seeded sweep over the same space."""
    if HAVE_HYPOTHESIS:
        return settings(max_examples=60, deadline=None)(
            given(
                preset=st.sampled_from(sorted(PRESETS)),
                cache_enabled=st.booleans(),
                with_faults=st.booleans(),
                seed=st.integers(0, 2**32 - 1),
            )(test)
        )

    @functools.wraps(test)
    def fallback():
        rng = np.random.default_rng(20120625)
        for _ in range(60):
            test(
                preset=str(rng.choice(sorted(PRESETS))),
                cache_enabled=bool(rng.integers(2)),
                with_faults=bool(rng.integers(2)),
                seed=int(rng.integers(2**32)),
            )

    return fallback


@_stream_property
def test_every_command_matches_the_reference_drive(
    preset, cache_enabled, with_faults, seed
):
    _check_against_reference(preset, cache_enabled, with_faults, seed)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("cache_enabled", [False, True])
@pytest.mark.parametrize("with_faults", [False, True])
def test_each_preset_matches_the_reference_drive(preset, cache_enabled, with_faults):
    # Every cell of the space, whatever the property draws.
    _check_against_reference(preset, cache_enabled, with_faults, seed=7)
