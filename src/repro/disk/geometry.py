"""Zoned disk geometry: mapping LBNs to physical locations.

Modern drives use *zoned bit recording*: outer cylinders pack more
sectors per track than inner ones, so the media transfer rate falls
from the outside in.  :class:`DiskGeometry` models the disk as a list
of :class:`Zone`\\ s, each a contiguous run of cylinders with a constant
sectors-per-track count, and provides the LBN → (cylinder, head,
sector) mapping plus angular positions used by the rotation model.

LBN layout is the conventional one: cylinder-major, then head (surface),
then sector along the track, zones ordered from the outer edge inward.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

from repro.disk.commands import SECTOR_SIZE


@dataclass(frozen=True)
class Zone:
    """A run of ``cylinders`` cylinders with uniform ``sectors_per_track``."""

    cylinders: int
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.cylinders <= 0:
            raise ValueError(f"zone needs >= 1 cylinder: {self.cylinders}")
        if self.sectors_per_track <= 0:
            raise ValueError(
                f"zone needs >= 1 sector per track: {self.sectors_per_track}"
            )


class Location(NamedTuple):
    """Physical coordinates of an LBN.

    A ``NamedTuple`` rather than a frozen dataclass: the drive builds
    one per track it touches, and a tuple built from positional
    arguments costs under a third as much.  :meth:`DiskGeometry.locate`
    builds it with ``tuple.__new__``, which skips the generated
    ``__new__`` frame.
    """

    cylinder: int
    head: int
    sector: int
    sectors_per_track: int
    #: Index of the track among all tracks, outermost first (used for skew).
    track_index: int


class DiskGeometry:
    """LBN-to-physical mapping for a zoned disk.

    Parameters
    ----------
    heads:
        Number of recording surfaces.
    zones:
        Zones ordered from the outer edge inward.
    track_skew:
        Fraction of a revolution by which each successive track's first
        sector is offset, hiding head/cylinder-switch time on sequential
        transfers.
    """

    def __init__(
        self,
        heads: int,
        zones: Sequence[Zone],
        track_skew: float = 0.1,
    ) -> None:
        if heads <= 0:
            raise ValueError(f"heads must be positive: {heads}")
        if not zones:
            raise ValueError("at least one zone is required")
        if not 0.0 <= track_skew < 1.0:
            raise ValueError(f"track_skew must be in [0, 1): {track_skew}")
        self.heads = heads
        self.zones: List[Zone] = list(zones)
        self.track_skew = track_skew

        # Precompute per-zone cumulative first-LBN / first-cylinder /
        # first-track, and each zone's sectors per track.
        self._zone_first_lbn: List[int] = []
        self._zone_first_cyl: List[int] = []
        self._zone_first_track: List[int] = []
        self._zone_spt: List[int] = []
        lbn = cyl = track = 0
        for zone in self.zones:
            self._zone_first_lbn.append(lbn)
            self._zone_first_cyl.append(cyl)
            self._zone_first_track.append(track)
            self._zone_spt.append(zone.sectors_per_track)
            lbn += zone.cylinders * heads * zone.sectors_per_track
            cyl += zone.cylinders
            track += zone.cylinders * heads
        self._total_sectors = lbn
        self._total_cylinders = cyl

    # -- sizes -------------------------------------------------------------
    @property
    def total_sectors(self) -> int:
        return self._total_sectors

    @property
    def capacity_bytes(self) -> int:
        return self._total_sectors * SECTOR_SIZE

    @property
    def cylinders(self) -> int:
        return self._total_cylinders

    # -- mapping -----------------------------------------------------------
    def locate(self, lbn: int) -> Location:
        """Map ``lbn`` to its physical :class:`Location`.

        The drive calls this once per track it touches, so the zone
        lookup is one range check, one bisection and the divisions
        below, all on the per-zone lists built at construction.
        """
        if not 0 <= lbn < self._total_sectors:
            raise ValueError(f"LBN {lbn} out of range [0, {self._total_sectors})")
        zi = bisect_right(self._zone_first_lbn, lbn) - 1
        spt = self._zone_spt[zi]
        # Tracks are numbered cylinder-major, so the track within the
        # zone splits into (cylinder, head) by the head count.
        track_in_zone, sector = divmod(lbn - self._zone_first_lbn[zi], spt)
        cyl_in_zone, head = divmod(track_in_zone, self.heads)
        return tuple.__new__(Location, (
            self._zone_first_cyl[zi] + cyl_in_zone,
            head,
            sector,
            spt,
            self._zone_first_track[zi] + track_in_zone,
        ))

    def angle_of(self, location: Location) -> float:
        """Angular position (fraction of a revolution) of a sector's start.

        Includes the per-track skew, so sequential transfers that cross a
        track boundary land just behind the head after a head switch.
        """
        angle = (
            location.sector / location.sectors_per_track
            + location.track_index * self.track_skew
        )
        return angle % 1.0

    # -- constructors --------------------------------------------------------
    @classmethod
    def uniform(
        cls, heads: int, cylinders: int, sectors_per_track: int
    ) -> "DiskGeometry":
        """A single-zone geometry (useful for tests and analysis)."""
        return cls(heads, [Zone(cylinders, sectors_per_track)])

    @classmethod
    def zoned(
        cls,
        heads: int,
        cylinders: int,
        outer_spt: int,
        inner_spt: int,
        num_zones: int = 8,
        track_skew: float = 0.1,
    ) -> "DiskGeometry":
        """A geometry with ``num_zones`` zones interpolating outer→inner SPT."""
        if num_zones <= 0:
            raise ValueError(f"num_zones must be positive: {num_zones}")
        if cylinders < num_zones:
            raise ValueError("need at least one cylinder per zone")
        zones = []
        base, extra = divmod(cylinders, num_zones)
        for i in range(num_zones):
            frac = i / (num_zones - 1) if num_zones > 1 else 0.0
            spt = round(outer_spt + (inner_spt - outer_spt) * frac)
            zones.append(Zone(base + (1 if i < extra else 0), spt))
        return cls(heads, zones, track_skew)

    def __repr__(self) -> str:
        gib = self.capacity_bytes / 1e9
        return (
            f"<DiskGeometry {gib:.1f} GB, {self.heads} heads, "
            f"{self.cylinders} cylinders, {len(self.zones)} zones>"
        )
