"""A simulated RAID array over multiple block devices.

:class:`RaidArray` stripes logical I/O over member
:class:`~repro.sched.device.BlockDevice`\\ s whose drives carry the
latent sector errors (:class:`~repro.faults.state.MediaFaults`).  The
array learns of an error the way a host does: a member command comes
back ``MEDIUM_ERROR``.  A device observer then reconstructs the
extent's bad sectors from redundancy (or counts them lost) and rewrites
them to the drive's spare pool, so *any* scrubber attached to a member
repairs the errors its ``VERIFY`` requests detect — and an ATA
``VERIFY`` served from the drive cache detects nothing (paper Fig. 1).
A disk failure puts the array in degraded mode; :meth:`rebuild`
reconstructs the failed member and counts the latent errors it trips
over on the survivors, which is exactly the data-loss mechanism the
paper's introduction describes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.disk.commands import CommandStatus, DiskCommand, Opcode
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sched.device import BlockDevice
from repro.sched.request import IORequest, PriorityClass
from repro.sim import AllOf, Simulation


class RaidArray:
    """A RAID-0/1/5 array over members that hold their own latent errors.

    Parameters
    ----------
    sim:
        Owning simulation.
    devices:
        Member block devices (all the same size, >= geometry.disk_sectors).
        Plant latent errors with
        ``device.drive.install_faults(MediaFaults(plan))``.
    geometry:
        Striping layout.

    Sectors lost with no redundancy left to rebuild them are counted in
    :attr:`data_loss_events`.
    """

    def __init__(
        self,
        sim: Simulation,
        devices: List[BlockDevice],
        geometry: RaidGeometry,
    ) -> None:
        if len(devices) != geometry.disks:
            raise ValueError(
                f"geometry expects {geometry.disks} disks, got {len(devices)}"
            )
        for device in devices:
            if device.drive.total_sectors < geometry.disk_sectors:
                raise ValueError(
                    "member device smaller than geometry.disk_sectors"
                )
        self.sim = sim
        self.devices = devices
        self.geometry = geometry
        self.failed: Optional[int] = None

        self.errors_detected_by_scrub = 0
        self.errors_detected_by_read = 0
        self.errors_repaired = 0
        self.data_loss_events = 0

        for index, device in enumerate(devices):
            device.observers.append(self._make_observer(index))

    # -- error plumbing ---------------------------------------------------------
    def _make_observer(self, disk: int):
        drive = self.devices[disk].drive

        def observe(kind: str, request: IORequest, now: float) -> None:
            if kind != "complete" or request.source == "rebuild":
                return  # the rebuild process does its own error handling
            faults = drive.faults
            if faults is None or request.status is not CommandStatus.MEDIUM_ERROR:
                return  # the slot's drive was replaced since, or all is well
            command = request.command
            bad = faults.bad_in_range(command.lbn, command.sectors, now)
            if command.opcode is not Opcode.WRITE:
                if command.opcode is Opcode.VERIFY:
                    self.errors_detected_by_scrub += len(bad)
                else:
                    self.errors_detected_by_read += len(bad)
                if self._redundancy_available(disk):
                    self.errors_repaired += len(bad)
                else:
                    self.data_loss_events += len(bad)
            # Reconstruct, then rewrite: the drive remaps each sector to
            # a spare.  A failed WRITE carries new data, so it loses none.
            for lbn in bad:
                drive.reallocate(lbn, now)

        return observe

    def _redundancy_available(self, disk: int) -> bool:
        if self.geometry.level is RaidLevel.RAID0:
            return False
        return self.failed is None or self.failed == disk

    # -- failure / rebuild -----------------------------------------------------------
    def fail_disk(self, disk: int) -> None:
        """Take a member out of service and give its slot a clean drive."""
        if not 0 <= disk < self.geometry.disks:
            raise ValueError(f"disk index out of range: {disk}")
        if self.failed is not None:
            raise RuntimeError("array already degraded")
        if self.geometry.level is RaidLevel.RAID0:
            raise RuntimeError("RAID-0 cannot survive a disk failure")
        self.failed = disk
        self.devices[disk].drive.faults = None

    def rebuild(self, request_sectors: int = 256):
        """Reconstruct the failed disk onto itself (hot spare model).

        Returns a process whose value is the number of *unrecoverable*
        sectors encountered — stripes where a surviving member held an
        undetected LSE when the rebuild read it.
        """
        if self.failed is None:
            raise RuntimeError("no failed disk to rebuild")
        return self.sim.process(self._rebuild(request_sectors))

    def _rebuild(self, request_sectors: int):
        failed = self.failed
        unrecoverable = 0
        survivors = [
            d for d in range(self.geometry.disks) if d != failed
        ]
        step = max(self.geometry.chunk_sectors, request_sectors)
        for start in range(0, self.geometry.disk_sectors, step):
            sectors = min(step, self.geometry.disk_sectors - start)
            reads = []
            for disk in survivors:
                reads.append(
                    self._submit(
                        disk, DiskCommand.read(start, sectors), "rebuild"
                    )
                )
            yield AllOf(self.sim, reads)
            # Any latent error on a survivor in this range is fatal for
            # the corresponding reconstructed sectors; the survivor then
            # remaps it.
            now = self.sim.now
            for disk in survivors:
                drive = self.devices[disk].drive
                if drive.faults is None:
                    continue
                bad = drive.faults.bad_in_range(start, sectors, now)
                unrecoverable += len(bad)
                for lbn in bad:
                    drive.reallocate(lbn, now)
            yield self._submit(
                failed, DiskCommand.write(start, sectors), "rebuild"
            )
        self.data_loss_events += unrecoverable
        self.failed = None
        return unrecoverable

    # -- logical I/O -------------------------------------------------------------------
    def read(self, lbn: int, sectors: int):
        """Logical read; returns a process completing when data is ready."""
        return self.sim.process(self._read(lbn, sectors))

    def write(self, lbn: int, sectors: int):
        """Logical write (data + parity/mirror chunks)."""
        return self.sim.process(self._write(lbn, sectors))

    def _read(self, lbn: int, sectors: int):
        pending = []
        for chunk in self.geometry.map_read(lbn, sectors):
            command = DiskCommand.read(chunk.lbn, chunk.sectors)
            if chunk.disk == self.failed:
                # Degraded read: reconstruct from the other members.
                stripe = chunk.lbn // self.geometry.chunk_sectors
                for member in self.geometry.stripe_members(stripe):
                    if member.disk != self.failed:
                        pending.append(
                            self._submit(member.disk, command, "array")
                        )
            else:
                pending.append(self._submit(chunk.disk, command, "array"))
        if pending:
            yield AllOf(self.sim, pending)

    def _write(self, lbn: int, sectors: int):
        pending = []
        for chunk in self.geometry.map_write(lbn, sectors):
            if chunk.disk == self.failed:
                continue  # degraded: the failed member's share is skipped
            pending.append(
                self._submit(
                    chunk.disk,
                    DiskCommand.write(chunk.lbn, chunk.sectors),
                    "array",
                )
            )
        if pending:
            yield AllOf(self.sim, pending)

    def _submit(self, disk: int, command: DiskCommand, source: str):
        request = IORequest(command, priority=PriorityClass.BE, source=source)
        return self.devices[disk].submit(request)
