"""Campaign specifications: what a fleet is and what to ask of it.

Everything here is a frozen dataclass of primitives and tuples, for
two load-bearing reasons:

* **Content addressing.**  A spec canonicalises through
  :func:`repro.parallel.cache.canonicalize`, so
  :func:`campaign_digest` is a stable identity for "this exact
  campaign" — the journal refuses to resume a directory whose digest
  does not match, and per-shard checkpoints key on the spec itself.
* **Determinism.**  Every random decision a campaign makes — which
  drive class a group gets, its age jitter, its whole-drive failure
  draws — derives from ``(campaign seed, stream, group index)`` via
  :func:`repro.parallel.cache.derive_seed`.  Seeds never depend on
  shard layout or worker scheduling, so a campaign sharded 4 ways, 64
  ways, interrupted and resumed, or re-run serially produces
  bit-identical fleet metrics.

The scrub policy's entire influence is channelled through its *latent
window* (mean latent error time): :func:`resolve_latent_windows` runs
the paper's MLET machinery (:mod:`repro.core.mlet`) over the policy's
actual sector-visit schedule, which is where staggered scrubbing earns
its shorter exposure.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import hashlib

import numpy as np

from repro.parallel.cache import canonicalize, derive_seed

__all__ = [
    "CampaignSpec",
    "DriveClass",
    "FleetSpec",
    "ScrubPolicySpec",
    "campaign_digest",
    "group_profile",
    "group_profiles",
    "group_seed",
    "resolve_latent_windows",
    "spec_from_dict",
    "spec_to_dict",
]

#: Seed-stream salts: disjoint derive_seed substreams so the fleet
#: composition draw can never collide with a failure-simulation draw.
_PROFILE_STREAM = 0x50524F46  # "PROF"
_GROUP_STREAM = 0x47525550  # "GRUP"
_POLICY_STREAM = 0x504F4C00  # "POL\0" + policy index (MLET burst draws)


def _hash_constants(init: int, mult: int, calls: int) -> Tuple[int, ...]:
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return tuple(constants)


#: numpy's ``SeedSequence`` hash multipliers in the order its ``hashmix``
#: advances them: call k xors with entry k and multiplies by entry k+1.
#: Mixing a four-word pool makes 16 calls (INIT_A / MULT_A: 4 to fill
#: it, 12 to cross-mix it); ``generate_state(4, np.uint64)`` makes 8
#: (INIT_B / MULT_B).  None depends on the seed.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


@dataclass(frozen=True)
class DriveClass:
    """One homogeneous slice of a heterogeneous fleet.

    ``preset`` names a :data:`repro.disk.models.PRESETS` drive model —
    the same models the single-drive simulator uses — and the failure
    parameters default to the Gray & van Ingen / Schroeder ballpark:
    ~10^5-hour MTTF and a slow wear-out ramp.
    """

    preset: str = "ultrastar"
    #: Relative share of the fleet's groups drawn from this class.
    weight: float = 1.0
    #: Whole-drive MTTF at age zero, hours.
    mttf_hours: float = 1.0e5
    #: Latent-sector-error *bursts* per drive-hour.
    lse_burst_rate_per_hour: float = 1.0e-4
    #: Nominal age of this slice's drives, years.
    age_years: float = 0.0
    #: Fractional failure-rate increase per year of age (wear-out).
    wearout_per_year: float = 0.0

    def __post_init__(self) -> None:
        from repro.disk.models import PRESETS

        if self.preset not in PRESETS:
            raise ValueError(
                f"unknown drive preset {self.preset!r}; "
                f"choose from {', '.join(sorted(PRESETS))}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive: {self.weight}")
        if self.mttf_hours <= 0:
            raise ValueError(f"mttf_hours must be positive: {self.mttf_hours}")
        if self.lse_burst_rate_per_hour < 0:
            raise ValueError("lse_burst_rate_per_hour must be >= 0")
        if self.age_years < 0 or self.wearout_per_year < 0:
            raise ValueError("age and wear-out must be >= 0")


@dataclass(frozen=True)
class FleetSpec:
    """A fleet of redundancy groups (RAID groups or bare drives)."""

    #: Number of redundancy groups simulated.
    groups: int = 1000
    #: Drives per group.
    disks_per_group: int = 8
    #: ``raid5`` / ``raid1`` tolerate one failure; ``none`` tolerates zero.
    raid_level: str = "raid5"
    #: Rebuild duration once a spare is attached, hours.
    mttr_hours: float = 24.0
    #: Delay between a failure and the rebuild starting (degraded), hours.
    spare_delay_hours: float = 4.0
    #: The fleet mix; groups draw a class by weight.
    classes: Tuple[DriveClass, ...] = (DriveClass(),)
    #: Extra per-group age jitter, uniform in [0, age_spread_years).
    age_spread_years: float = 0.0

    def __post_init__(self) -> None:
        if self.groups <= 0:
            raise ValueError(f"groups must be positive: {self.groups}")
        if self.disks_per_group < 1:
            raise ValueError(
                f"disks_per_group must be >= 1: {self.disks_per_group}"
            )
        if self.raid_level not in ("raid5", "raid1", "none"):
            raise ValueError(
                f"raid_level must be raid5|raid1|none: {self.raid_level!r}"
            )
        if self.raid_level == "raid1" and self.disks_per_group != 2:
            raise ValueError("raid1 groups are mirrored pairs (2 disks)")
        if self.raid_level == "raid5" and self.disks_per_group < 3:
            raise ValueError("raid5 groups need >= 3 disks")
        if self.mttr_hours <= 0 or self.spare_delay_hours < 0:
            raise ValueError("mttr must be positive, spare delay >= 0")
        if not self.classes:
            raise ValueError("fleet needs at least one drive class")
        if self.age_spread_years < 0:
            raise ValueError("age_spread_years must be >= 0")

    @property
    def redundancy(self) -> int:
        """Drive failures a group absorbs without data loss."""
        return 0 if self.raid_level == "none" else 1

    @property
    def drives(self) -> int:
        return self.groups * self.disks_per_group


@dataclass(frozen=True)
class ScrubPolicySpec:
    """One scrub policy under evaluation.

    The policy is reduced to its latent window (mean latent error
    time) by replaying the real scrub order over a model disk — see
    :func:`resolve_latent_windows`.  ``latent_window_hours`` overrides
    that computation when a measured value is available.
    """

    name: str
    #: ``sequential`` or ``staggered`` (the paper's two orders).
    algorithm: str = "sequential"
    #: Staggering regions (ignored for sequential).
    regions: int = 128
    #: Scrub pass period, hours (one full-disk pass per period).
    period_hours: float = 168.0
    #: Model disk size used to compute the visit schedule.
    model_sectors: int = 1 << 18
    #: Mean LSE burst length in sectors (Bairavasundaram clustering).
    burst_length: float = 32.0
    #: Override: skip the schedule computation and use this window.
    latent_window_hours: Optional[float] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("sequential", "staggered"):
            raise ValueError(
                f"algorithm must be sequential|staggered: {self.algorithm!r}"
            )
        if self.period_hours <= 0:
            raise ValueError(f"period_hours must be positive: {self.period_hours}")
        if self.regions < 1:
            raise ValueError(f"regions must be >= 1: {self.regions}")
        if self.model_sectors < 1024:
            raise ValueError("model_sectors too small to schedule")
        if self.latent_window_hours is not None and self.latent_window_hours < 0:
            raise ValueError("latent_window_hours must be >= 0")


@dataclass(frozen=True)
class CampaignSpec:
    """A full reliability campaign: fleet x policies x mission."""

    fleet: FleetSpec = field(default_factory=FleetSpec)
    policies: Tuple[ScrubPolicySpec, ...] = (
        ScrubPolicySpec(name="sequential-1w", algorithm="sequential"),
        ScrubPolicySpec(name="staggered-1w", algorithm="staggered"),
    )
    #: Mission (observation) time per group, years.
    mission_years: float = 10.0
    seed: int = 0
    #: Shard count: groups are split into this many contiguous ranges,
    #: each a separately checkpointed unit of work.
    shards: int = 16

    def __post_init__(self) -> None:
        if self.mission_years <= 0:
            raise ValueError(f"mission_years must be positive: {self.mission_years}")
        if not self.policies:
            raise ValueError("campaign needs at least one scrub policy")
        names = [policy.name for policy in self.policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names: {names}")
        if not 1 <= self.shards:
            raise ValueError(f"shards must be >= 1: {self.shards}")

    def shard_ranges(self) -> List[Tuple[int, int]]:
        """Balanced contiguous ``(group_start, group_count)`` ranges."""
        shards = min(self.shards, self.fleet.groups)
        base, extra = divmod(self.fleet.groups, shards)
        ranges = []
        start = 0
        for shard in range(shards):
            count = base + (1 if shard < extra else 0)
            ranges.append((start, count))
            start += count
        return ranges


def campaign_digest(spec: CampaignSpec) -> str:
    """Content digest identifying a campaign spec exactly."""
    return hashlib.sha256(repr(canonicalize(spec)).encode()).hexdigest()


def group_seed(campaign_seed: int, group_index: int) -> int:
    """Failure-simulation seed for one group.

    Derived from the campaign seed and the group index only — never
    from shard layout, so resharding or resuming cannot perturb a
    single draw, and deliberately *not* from the policy: a scrub
    policy cannot change when drives physically fail, so every policy
    replays the same whole-drive failure draws for the same group
    (common random numbers), and the only divergence between policies
    is the latent-error exposure their windows admit.  Policy
    comparisons therefore difference out the failure noise exactly.
    """
    return derive_seed(derive_seed(campaign_seed, _GROUP_STREAM), group_index)


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)``, one row per seed.

    numpy's pool mix and state hash, run as ``uint32`` array arithmetic
    over the whole batch (arrays wrap on overflow as numpy's C does).
    A seed must lie in [0, 2**64) — a :func:`derive_seed` value is below
    2**63 — so its entropy is its two little-endian 32-bit words, or one
    below 2**32, where the pool hashes a 0 in place of the missing high
    word: the same thing.
    """
    steps = iter(zip(_POOL_HASH, _POOL_HASH[1:]))

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    low = np.array([seed & 0xFFFFFFFF for seed in seeds], dtype=np.uint32)
    high = np.array([seed >> 32 for seed in seeds], dtype=np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                # mix(x, y) = MIX_MULT_L * x - MIX_MULT_R * y, folded.
                mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
                pool[dst] = mixed ^ mixed >> 16
    halves = []
    for index, (xor, mult) in enumerate(zip(_STATE_HASH, _STATE_HASH[1:])):
        value = (pool[index % 4] ^ xor) * mult
        halves.append((value ^ value >> 16).astype(np.uint64))
    # generate_state reads its 32-bit words as little-endian uint64s.
    return np.stack(
        [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)], axis=1
    )


def _generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for each seed, bit for bit.

    The seed hash runs once for the batch (:func:`_seed_words`); each
    ``PCG64`` then seeds itself from its row exactly as from the words
    a ``SeedSequence`` generates.
    """
    # Here, not at module level: importing repro.fleet loads no
    # numpy.random (make import-budget).
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):  # PCG64 asks for 4 x uint64, once
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    for row in _seed_words(seeds):
        yield np.random.Generator(np.random.PCG64(StateWords(row)))


def _group_generators(
    campaign_seed: int, salt: int, start: int, count: int
) -> Iterator[np.random.Generator]:
    """The generators of groups ``[start, start+count)`` in seed stream
    ``salt``: with ``_GROUP_STREAM``, ``default_rng(group_seed(...))``'s."""
    stream = derive_seed(campaign_seed, salt)
    return _generators(
        [derive_seed(stream, index) for index in range(start, start + count)]
    )


@dataclass(frozen=True)
class GroupProfile:
    """Resolved per-group parameters (deterministic per seed+index)."""

    class_index: int
    preset: str
    mttf_hours: float
    lse_burst_rate_per_hour: float
    age_years: float


def group_profiles(
    fleet: FleetSpec, campaign_seed: int, start: int, count: int
) -> List[GroupProfile]:
    """Which drives groups ``[start, start+count)`` got, and how worn.

    The class draw (by weight) and the age jitter come from a dedicated
    per-group seed substream, and wear-out inflates the failure rate
    multiplicatively: ``lam = (1/mttf) * (1 + wearout * age)``.  A fleet
    of one class with no age spread has nothing to draw — every group
    gets the same profile — so no generator is built for it.
    """
    classes = fleet.classes
    spread = fleet.age_spread_years
    if len(classes) == 1 and spread == 0:
        # ``+ 0.0`` is what the jitter term contributes: it turns an
        # ``age_years`` of -0.0 into 0.0 exactly as a draw would.
        return [_profile(classes, 0, classes[0].age_years + 0.0)] * count
    weights = np.array([cls.weight for cls in classes])
    total = float(weights.sum())
    cumulative = np.cumsum(weights).tolist()
    last = len(classes) - 1
    profiles = []
    for rng in _group_generators(campaign_seed, _PROFILE_STREAM, start, count):
        class_index = min(bisect_right(cumulative, rng.random() * total), last)
        age = classes[class_index].age_years + rng.random() * spread
        profiles.append(_profile(classes, class_index, age))
    return profiles


def _profile(
    classes: Tuple[DriveClass, ...], class_index: int, age: float
) -> GroupProfile:
    cls = classes[class_index]
    accel = 1.0 + cls.wearout_per_year * age
    return GroupProfile(
        class_index=class_index,
        preset=cls.preset,
        mttf_hours=cls.mttf_hours / accel,
        lse_burst_rate_per_hour=cls.lse_burst_rate_per_hour,
        age_years=age,
    )


def group_profile(
    fleet: FleetSpec, campaign_seed: int, group_index: int
) -> GroupProfile:
    """:func:`group_profiles` for the single group ``group_index``."""
    return group_profiles(fleet, campaign_seed, group_index, 1)[0]


# -- JSON round-trip ---------------------------------------------------------
#
# The orchestration service (repro.service) accepts campaign specs as
# JSON over HTTP and persists them in its job queue.  The round-trip
# must preserve the campaign digest exactly: a spec submitted over the
# wire has to dedup against the same spec built in-process, and the
# journal refuses digests that drift.  That is why ``spec_from_dict``
# coerces every numeric field to its declared dataclass type — JSON has
# no int/float distinction for whole numbers, but ``canonicalize``
# does (``6`` and ``6.0`` hash differently).

_FLOAT_FIELDS = frozenset(
    {
        "weight", "mttf_hours", "lse_burst_rate_per_hour", "age_years",
        "wearout_per_year", "mttr_hours", "spare_delay_hours",
        "age_spread_years", "period_hours", "burst_length",
        "mission_years",
    }
)
_OPTIONAL_FLOAT_FIELDS = frozenset({"latent_window_hours"})
_INT_FIELDS = frozenset(
    {"groups", "disks_per_group", "regions", "model_sectors", "seed", "shards"}
)
_STR_FIELDS = frozenset({"preset", "raid_level", "name", "algorithm"})


def spec_to_dict(spec: CampaignSpec) -> dict:
    """JSON-safe dict form of a campaign spec (see :func:`spec_from_dict`).

    Pure data: nested dicts and lists of primitives only, so the result
    survives ``json.dumps``/``loads`` and reconstructs to a spec with
    the *same* :func:`campaign_digest`.
    """
    payload = dataclasses.asdict(spec)
    payload["fleet"]["classes"] = [
        dict(cls) for cls in payload["fleet"]["classes"]
    ]
    payload["policies"] = [dict(policy) for policy in payload["policies"]]
    return payload


def _coerce_field(cls_name: str, name: str, value: Any) -> Any:
    """Coerce one JSON value to the field's declared spec type."""
    label = f"{cls_name}.{name}"
    if name in _FLOAT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{label} must be a number, got {value!r}")
        return float(value)
    if name in _OPTIONAL_FLOAT_FIELDS:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{label} must be a number or null, got {value!r}")
        return float(value)
    if name in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        return int(value)
    if name in _STR_FIELDS:
        if not isinstance(value, str):
            raise ValueError(f"{label} must be a string, got {value!r}")
        return value
    raise ValueError(f"unknown field {label}")


def _build(cls, data: Any, label: str, **overrides):
    """Construct a spec dataclass from a JSON mapping, strictly.

    Unknown keys are a :class:`ValueError` (the service maps that to
    HTTP 400), never silently dropped — a typoed field that changed
    nothing would otherwise dedup against the wrong campaign.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{label}: unknown fields {unknown}")
    kwargs = dict(overrides)
    for name, value in data.items():
        if name in kwargs:
            continue
        kwargs[name] = _coerce_field(cls.__name__, name, value)
    return cls(**kwargs)


def spec_from_dict(data: Any) -> CampaignSpec:
    """Reconstruct a :class:`CampaignSpec` from :func:`spec_to_dict` form.

    Raises :class:`ValueError` on anything malformed — wrong shapes,
    unknown fields, out-of-range values (the dataclass validators run
    as usual).  Digest-stable: ``spec_from_dict(spec_to_dict(s))`` has
    the same :func:`campaign_digest` as ``s``, including through a JSON
    round-trip.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"campaign spec must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(
        set(data) - {"fleet", "policies", "mission_years", "seed", "shards"}
    )
    if unknown:
        raise ValueError(f"campaign spec: unknown fields {unknown}")
    missing = sorted({"fleet", "policies"} - set(data))
    if missing:
        raise ValueError(f"campaign spec: missing fields {missing}")
    fleet_data = data.get("fleet", {})
    if not isinstance(fleet_data, dict):
        raise ValueError("fleet must be a JSON object")
    classes_data = fleet_data.get("classes")
    fleet_kwargs = {}
    if classes_data is not None:
        if not isinstance(classes_data, list) or not classes_data:
            raise ValueError("fleet.classes must be a non-empty list")
        fleet_kwargs["classes"] = tuple(
            _build(DriveClass, cls, f"fleet.classes[{index}]")
            for index, cls in enumerate(classes_data)
        )
    fleet = _build(
        FleetSpec,
        {k: v for k, v in fleet_data.items() if k != "classes"},
        "fleet",
        **fleet_kwargs,
    )
    spec_kwargs: dict = {"fleet": fleet}
    policies_data = data.get("policies")
    if policies_data is not None:
        if not isinstance(policies_data, list) or not policies_data:
            raise ValueError("policies must be a non-empty list")
        spec_kwargs["policies"] = tuple(
            _build(ScrubPolicySpec, policy, f"policies[{index}]")
            for index, policy in enumerate(policies_data)
        )
    for name in ("mission_years", "seed", "shards"):
        if name in data:
            spec_kwargs[name] = _coerce_field("CampaignSpec", name, data[name])
    return CampaignSpec(**spec_kwargs)


def resolve_latent_windows(spec: CampaignSpec) -> Tuple[float, ...]:
    """Mean latent error time per policy, hours.

    For each policy, the actual scrub order's sector-visit schedule is
    computed over the model disk with the scrub rate that makes one
    pass take ``period_hours``; the MLET over a seeded burst sample
    (:func:`repro.core.mlet.mean_latent_error_time`) is the policy's
    latent window.  Deterministic given the spec, so both the shard
    tasks and the closed-form calibration see the same number.
    """
    from repro.core import SequentialScrub, StaggeredScrub
    from repro.core.mlet import (
        generate_bursts,
        mean_latent_error_time,
        sector_visit_times,
    )
    from repro.disk.commands import SECTOR_SIZE

    windows = []
    for index, policy in enumerate(spec.policies):
        if policy.latent_window_hours is not None:
            windows.append(float(policy.latent_window_hours))
            continue
        if policy.algorithm == "staggered":
            algorithm = StaggeredScrub(policy.regions)
        else:
            algorithm = SequentialScrub()
        period_s = policy.period_hours * 3600.0
        rate = policy.model_sectors * SECTOR_SIZE / period_s
        visits, pass_duration = sector_visit_times(
            algorithm, policy.model_sectors, 128, rate
        )
        rng = np.random.default_rng(
            derive_seed(derive_seed(spec.seed, _POLICY_STREAM + index), 0xB0B)
        )
        bursts = generate_bursts(
            rng,
            policy.model_sectors,
            count=2000,
            horizon=10 * pass_duration,
            mean_length=policy.burst_length,
            max_length=int(policy.burst_length * 16),
        )
        mlet_s = mean_latent_error_time(visits, pass_duration, bursts)
        windows.append(mlet_s / 3600.0)
    return tuple(windows)
