"""The drive command-service model.

:class:`Drive` is a *passive* timing model: callers (the block device /
scheduler layer) serialise commands and call :meth:`Drive.service`,
which computes when the command finishes and updates drive state (head
position, cache contents).  The platter angle is derived from absolute
simulation time, so positioning costs follow automatically — including
the paper's central mechanical effect: after a ``VERIFY`` completes,
command-completion propagation lets the next sequential sector slip
past the head, costing a full revolution on the next back-to-back
sequential ``VERIFY`` (Section IV-A).

Cache semantics per Section III-A:

* ``READ`` consults and populates the cache (with read-ahead);
* ``VERIFY`` on a SCSI/SAS drive always reads the medium, never touching
  the cache (the whole point of the command);
* ``VERIFY`` on an ATA drive with the firmware bug behaves like a read,
  hitting and polluting the cache (Fig. 1);
* ``WRITE`` goes to the medium (write cache off, the safe configuration
  for the paper's experiments) and invalidates overlapping cache data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.disk.cache import DiskCache
from repro.disk.commands import CommandStatus, DiskCommand, Interface, Opcode
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import RotationModel, SeekModel
from repro.disk.models import DriveSpec

if TYPE_CHECKING:  # imported lazily to keep disk <- faults acyclic
    from repro.faults.state import MediaFaults


class ServiceBreakdown(NamedTuple):
    """Timing decomposition (and outcome) of one serviced command.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    command, and a tuple built from positional arguments costs about a
    quarter as much.  The drive builds it with ``tuple.__new__``, all
    nine fields given, which skips the generated ``__new__`` frame.
    """

    start: float
    finish: float
    overhead: float
    seek: float
    rotation: float
    transfer: float
    cache_hit: bool
    #: Completion status; ``MEDIUM_ERROR`` when the command touched an
    #: unreadable sector on the medium.
    status: CommandStatus = CommandStatus.GOOD
    #: First bad LBN in the range for ``MEDIUM_ERROR`` results (the
    #: sense-data LBA a real drive reports).
    error_lbn: Optional[int] = None

    @property
    def total(self) -> float:
        return self.finish - self.start

    @property
    def ok(self) -> bool:
        return self.status is CommandStatus.GOOD


class Drive:
    """A single disk drive with mechanical and cache state.

    Parameters
    ----------
    spec:
        Drive parameters (see :mod:`repro.disk.models`).
    cache_enabled:
        Models the drive's read-cache toggle (``hdparm -W`` analogue for
        reads); several paper experiments run with the cache disabled.

    Notes
    -----
    The drive is not thread/process aware: it trusts the caller to
    issue commands one at a time with non-decreasing ``now`` values.
    """

    def __init__(self, spec: DriveSpec, cache_enabled: bool = True) -> None:
        self.spec = spec
        self.geometry = DiskGeometry.zoned(
            heads=spec.heads,
            cylinders=spec.cylinders,
            outer_spt=spec.outer_spt,
            inner_spt=spec.inner_spt,
            num_zones=spec.num_zones,
            track_skew=spec.track_skew,
        )
        self.seek_model = SeekModel.from_specs(
            spec.track_to_track_seek,
            spec.average_seek,
            spec.full_stroke_seek,
            spec.cylinders,
        )
        self.rotation = RotationModel(spec.rpm)
        self.cache = DiskCache(
            num_segments=spec.cache_segments,
            segment_sectors=spec.cache_segment_sectors,
            read_ahead_sectors=spec.read_ahead_sectors,
        )
        self.cache_enabled = cache_enabled
        #: The geometry's sector count, stored: ``service`` checks every
        #: command's range against it.
        self.total_sectors = self.geometry.total_sectors
        #: Latent-sector-error state (:meth:`install_faults`); ``None``
        #: means a fault-free drive (the fault checks then cost one
        #: attribute test per command).
        self.faults: Optional["MediaFaults"] = None
        self.head_cylinder = 0
        self._last_issue_time = float("-inf")
        self.commands_serviced = 0
        #: Optional telemetry sink; meters every serviced command.  A
        #: :class:`~repro.sched.device.BlockDevice` installs its
        #: simulation's sink here.
        self.telemetry = None

    # -- properties ----------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.geometry.capacity_bytes

    def install_faults(self, faults: "MediaFaults") -> None:
        """Attach latent-sector-error state to this drive."""
        if faults.plan.total_sectors != self.total_sectors:
            raise ValueError(
                f"fault plan covers {faults.plan.total_sectors} sectors but "
                f"the drive has {self.total_sectors}"
            )
        self.faults = faults

    def reallocate(self, lbn: int, now: float) -> bool:
        """Remap ``lbn`` to the spare pool (``REASSIGN BLOCKS``).

        Returns ``False`` when the spare pool is exhausted.  Any cached
        copy of the sector is dropped so later commands see the spare.
        """
        if self.faults is None:
            raise RuntimeError("drive has no fault state installed")
        self.cache.invalidate(lbn, 1)
        return self.faults.reallocate(lbn, now)

    # -- service --------------------------------------------------------------
    def service(self, command: DiskCommand, now: float) -> ServiceBreakdown:
        """Service ``command`` starting at time ``now``; returns the timing.

        ``now`` must not precede the previous command's issue time — the
        caller owns serialisation.
        """
        if command.lbn + command.sectors > self.total_sectors:
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
        cache_path = self.cache_enabled and self._uses_cache_path(command)
        if cache_path:
            breakdown = self._try_cache(command, now)
        if breakdown is None:
            breakdown = self._media_access(command, now, cache_path)
        if self.telemetry is not None:
            self.telemetry.drive_serviced(command, breakdown)
        return breakdown

    # -- internals -------------------------------------------------------------
    def _uses_cache_path(self, command: DiskCommand) -> bool:
        """Whether this command may be satisfied from / populate the
        cache, on a drive whose cache is enabled."""
        if command.opcode is Opcode.READ:
            return True
        if command.opcode is Opcode.VERIFY:
            # The ATA firmware bug: VERIFY behaves like a read.
            return (
                self.spec.interface is Interface.ATA
                and self.spec.ata_verify_cache_bug
            )
        return False

    def _try_cache(
        self, command: DiskCommand, now: float
    ) -> Optional[ServiceBreakdown]:
        """Attempt buffer service; ``None`` on miss."""
        spec = self.spec
        issued = now + spec.command_overhead
        ready = self.cache.lookup(command.lbn, command.sectors, issued)
        if ready is None:
            return None
        # Wait for the read-ahead fill front if the tail of the range is
        # still streaming in, then burst over the interface.
        transfer = command.bytes / spec.interface_rate
        finish = max(issued, ready) + transfer + spec.completion_overhead
        if self.faults is not None:
            # Buffer service never touches the medium, so a sector that
            # went bad after it was cached is silently reported good —
            # for ATA VERIFY this is the paper's Fig. 1 firmware bug
            # losing a real latent error.
            for bad in self.faults.bad_in_range(
                command.lbn, command.sectors, now
            ):
                self.faults.log.record_cache_masked(
                    finish, bad, command.opcode.value
                )
        # Fields in declaration order: start, finish, overhead, seek,
        # rotation, transfer, cache_hit, status, error_lbn.
        return tuple.__new__(ServiceBreakdown, (
            now,
            finish,
            spec.command_overhead + spec.completion_overhead,
            0.0,
            max(0.0, ready - issued),
            transfer,
            True,
            CommandStatus.GOOD,
            None,
        ))

    def _media_access(
        self, command: DiskCommand, now: float, cache_path: bool
    ) -> ServiceBreakdown:
        """Mechanical access: seek + rotate + transfer track by track.

        Every formula is the one method that owns it (``locate``,
        ``angle_of``, ``seek_model.time``, ``latency_to``,
        ``transfer_time``), bound to a local once per command.
        """
        spec = self.spec
        locate = self.geometry.locate
        angle_of = self.geometry.angle_of
        seek_time = self.seek_model.time
        latency_to = self.rotation.latency_to
        transfer_time = self.rotation.transfer_time
        head_switch = spec.head_switch_time

        t = now + spec.command_overhead
        seek_total = rotation_total = transfer_total = 0.0
        lbn = command.lbn
        remaining = command.sectors
        head = self.head_cylinder
        first_spt = 0  # the first track's sectors per track, once reached
        while remaining > 0:
            loc = locate(lbn)
            cylinder = loc.cylinder
            spt = loc.sectors_per_track
            # Positioning: initial seek, or a switch between tracks.
            if not first_spt:
                first_spt = spt
                seek = seek_time(abs(cylinder - head))
            elif cylinder != head:
                seek = max(seek_time(abs(cylinder - head)), head_switch)
            else:
                seek = head_switch
            t += seek
            seek_total += seek
            head = cylinder

            # Rotate to the first sector of this track's chunk.
            latency = latency_to(angle_of(loc), t)
            t += latency
            rotation_total += latency

            # Sweep the contiguous sectors available on this track.
            chunk = min(remaining, spt - loc.sector)
            sweep = transfer_time(chunk, spt)
            t += sweep
            transfer_total += sweep
            lbn += chunk
            remaining -= chunk
        self.head_cylinder = head

        media_end = t

        status = CommandStatus.GOOD
        error_lbn: Optional[int] = None
        if self.faults is not None:
            error_lbn = self.faults.first_bad(command.lbn, command.sectors, now)
            if error_lbn is not None:
                # The head reached an unreadable sector: the drive burns
                # its retry/ECC budget, then fails the whole command with
                # a MEDIUM ERROR naming the first bad LBA.
                status = CommandStatus.MEDIUM_ERROR
                media_end += spec.media_error_retry_time
        finish = media_end + spec.completion_overhead

        if status is CommandStatus.MEDIUM_ERROR:
            # Nothing past the bad sector was read; keep the buffer free
            # of any stale copy of the failed range.
            self.cache.invalidate(command.lbn, command.sectors)
        elif cache_path:
            # The first track's zone is the zone of ``command.lbn``.
            zone_rate = first_spt / self.rotation.period
            limit = None
            if self.faults is not None:
                # Read-ahead stops at the first unreadable sector: the
                # firmware cannot stream data it cannot read, so the
                # cache never covers a sector that was already bad when
                # the segment filled.
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

        # Fields in declaration order: start, finish, overhead, seek,
        # rotation, transfer, cache_hit, status, error_lbn.
        return tuple.__new__(ServiceBreakdown, (
            now,
            finish,
            spec.command_overhead + spec.completion_overhead,
            seek_total,
            rotation_total,
            transfer_total,
            False,
            status,
            error_lbn,
        ))

    def __repr__(self) -> str:
        return f"<Drive {self.spec.name!r} head@{self.head_cylinder}>"
