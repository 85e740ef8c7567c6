"""Named trace specifications mirroring the paper's Table I / Table II.

Each :class:`TraceSpec` couples a synthetic
:class:`~repro.traces.synth.TraceProfile` with the published statistics
it is calibrated against: request counts per week (Table I) and idle
interval mean/variance/CoV (Table II).  ``generate_trace`` builds a
reproducible trace for a spec.

Calibration notes
-----------------
* OFF-gap means are set to Table II idle means; gap CoVs to Table II
  CoVs (the measured idle CoV tracks the gap CoV because intra-burst
  gaps are shorter than a request service time).
* Burst lengths are solved from Table I request rates:
  ``rate = burst / (gap_mean + burst * intra_gap)``.
* HP Cello disks get the nightly-batch hour profile (Ruemmler &
  Wilkes attribute Cello's spikes to daily backups); MSR disks get an
  office-hours profile; TPC-C is memoryless and flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.rng import RandomStreams
from repro.traces.idle import idle_intervals_from_trace
from repro.traces.record import Trace
from repro.traces.synth import (
    FLAT,
    NIGHTLY_BATCH,
    OFFICE_HOURS,
    SyntheticTraceGenerator,
    TraceProfile,
)

#: 300 GB in 512-byte sectors (the paper's main drive).
_CAP_300GB = 585_937_500
#: 9 GB (a Cello-era disk).
_CAP_9GB = 17_578_125
#: 36 GB (TPC-C data disks).
_CAP_36GB = 70_312_500


@dataclass(frozen=True)
class TraceSpec:
    """A catalog entry: synthetic profile plus published target stats."""

    name: str
    collection: str
    description: str
    profile: TraceProfile
    paper_requests_per_week: Optional[int] = None
    paper_idle_mean: Optional[float] = None
    paper_idle_variance: Optional[float] = None
    paper_idle_cov: Optional[float] = None
    #: Per-request positioning time to assume when reconstructing idle
    #: intervals from this trace.  TPC-C ran against a cached array with
    #: sub-millisecond services (its Table II idle mean equals the mean
    #: inter-arrival time), so it gets a near-zero value.
    service_positioning: float = 0.004


def _spec(
    name: str,
    collection: str,
    description: str,
    idle_mean: float,
    idle_cov: float,
    burst: float,
    intra: float,
    hourly,
    requests: Optional[int] = None,
    variance: Optional[float] = None,
    capacity: int = _CAP_300GB,
    service_positioning: float = 0.004,
    **profile_overrides,
) -> TraceSpec:
    profile = TraceProfile(
        name=name,
        description=description,
        idle_gap_mean=idle_mean,
        idle_gap_cov=idle_cov,
        burst_len_mean=burst,
        intra_gap_mean=intra,
        hourly_profile=hourly,
        capacity_sectors=capacity,
        **profile_overrides,
    )
    return TraceSpec(
        name=name,
        collection=collection,
        description=description,
        profile=profile,
        paper_requests_per_week=requests,
        paper_idle_mean=idle_mean,
        paper_idle_variance=variance,
        paper_idle_cov=idle_cov,
        service_positioning=service_positioning,
    )


CATALOG: Dict[str, TraceSpec] = {
    spec.name: spec
    for spec in [
        # ---- MSR Cambridge (2008): office-hours periodicity ----
        _spec(
            "MSRsrc11", "MSR Cambridge", "Source control",
            idle_mean=0.4640, idle_cov=21.693, burst=40, intra=0.002,
            hourly=OFFICE_HOURS, requests=45_746_222, variance=101.31,
        ),
        _spec(
            "MSRusr1", "MSR Cambridge", "Home dirs",
            idle_mean=0.0997, idle_cov=8.6516, burst=8, intra=0.0015,
            hourly=OFFICE_HOURS, requests=45_283_980, variance=0.7448,
        ),
        _spec(
            "MSRusr2", "MSR Cambridge", "Home dirs (representative disk)",
            idle_mean=0.30, idle_cov=18.0, burst=10, intra=0.002,
            hourly=OFFICE_HOURS,
        ),
        _spec(
            "MSRproj2", "MSR Cambridge", "Project dirs",
            idle_mean=0.1384, idle_cov=200.75, burst=7, intra=0.002,
            hourly=OFFICE_HOURS, requests=29_266_482, variance=772.18,
        ),
        _spec(
            "MSRprn1", "MSR Cambridge", "Print server",
            idle_mean=0.2280, idle_cov=12.641, burst=4, intra=0.002,
            hourly=OFFICE_HOURS, requests=11_233_411, variance=8.3073,
        ),
        # ---- HP Cello (1999): nightly backup spikes ----
        _spec(
            "HPc6t8d0", "HP Cello", "News disk (many short idle intervals)",
            idle_mean=0.1502, idle_cov=13.845, burst=3, intra=0.003,
            hourly=NIGHTLY_BATCH, requests=9_529_855, variance=4.3243,
            capacity=_CAP_9GB, seq_prob=0.4,
        ),
        _spec(
            "HPc6t5d1", "HP Cello", "Project files",
            idle_mean=0.4503, idle_cov=29.807, burst=4, intra=0.003,
            hourly=NIGHTLY_BATCH, requests=4_588_778, variance=180.13,
            capacity=_CAP_9GB,
        ),
        _spec(
            "HPc6t5d0", "HP Cello", "Home dirs",
            idle_mean=0.4345, idle_cov=9.0731, burst=3, intra=0.003,
            hourly=NIGHTLY_BATCH, requests=3_365_078, variance=15.545,
            capacity=_CAP_9GB,
        ),
        _spec(
            "HPc3t3d0", "HP Cello", "Root & swap",
            idle_mean=0.4555, idle_cov=8.2301, burst=2, intra=0.003,
            hourly=NIGHTLY_BATCH, requests=2_742_326, variance=14.051,
            capacity=_CAP_9GB,
        ),
        # ---- MS TPC-C (2009): memoryless ----
        _spec(
            "TPCdisk66", "MS TPC-C", "TPC-C run",
            idle_mean=0.0014, idle_cov=0.8608, burst=1, intra=0.001,
            hourly=FLAT, requests=513_038, variance=1.5e-6,
            capacity=_CAP_36GB, service_positioning=0.0002,
            memoryless=True, rate=714.0, duration=600.0, seq_prob=0.1,
        ),
        _spec(
            "TPCdisk88", "MS TPC-C", "TPC-C run",
            idle_mean=0.0015, idle_cov=0.8785, burst=1, intra=0.001,
            hourly=FLAT, requests=513_844, variance=1.6e-6,
            capacity=_CAP_36GB, service_positioning=0.0002,
            memoryless=True, rate=667.0, duration=600.0, seq_prob=0.1,
        ),
    ]
}


def generate_trace(
    name: str,
    duration: Optional[float] = None,
    seed: int = 0,
    rate_scale: float = 1.0,
) -> Trace:
    """Build the synthetic trace for catalog entry ``name``.

    Parameters
    ----------
    duration:
        Trace length in seconds; defaults to the profile's (one day for
        Cello/MSR entries, ten minutes for TPC-C).
    seed:
        Root seed; the same (name, seed, duration) is fully reproducible.
    rate_scale:
        Scales the request *rate* (via burst length or Poisson rate)
        without changing the idle-gap distribution — useful for cheap
        statistical experiments on long horizons.
    """
    if name not in CATALOG:
        raise KeyError(
            f"unknown trace {name!r}; available: {sorted(CATALOG)}"
        )
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive: {rate_scale}")
    profile = CATALOG[name].profile
    overrides = {}
    if duration is not None:
        overrides["duration"] = float(duration)
    if rate_scale != 1.0:
        if profile.memoryless:
            overrides["rate"] = profile.rate * rate_scale
        else:
            overrides["burst_len_mean"] = max(
                1.0, profile.burst_len_mean * rate_scale
            )
    if overrides:
        profile = profile.with_overrides(**overrides)
    rng = RandomStreams(seed=seed).get(f"trace/{name}")
    return SyntheticTraceGenerator(profile, rng).generate()


def generate_corpus(
    directory,
    names=None,
    duration: Optional[float] = None,
    seed: int = 0,
    repetitions: int = 1,
    chunk_requests: Optional[int] = None,
):
    """Build an on-disk trace corpus from catalog entries.

    One store per entry (see :class:`repro.traces.store.TraceCorpus`),
    each generated with :func:`generate_trace` at the catalog's own rate
    under the shared ``seed``, so the whole corpus is a pure function of
    ``(names, duration, seed, repetitions)``.

    ``repetitions`` tiles the generated day end-to-end (each copy's
    times offset past the previous copy's span) to reach multi-GB
    corpus sizes without ever materialising more than one repetition:
    the copies stream into the store writer as chunks.  Returns the
    opened :class:`~repro.traces.store.TraceCorpus`.
    """
    from repro.traces.store import DEFAULT_CHUNK_REQUESTS, TraceCorpus

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1: {repetitions}")
    if names is None:
        names = sorted(CATALOG)
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        raise KeyError(
            f"unknown trace(s) {unknown}; available: {sorted(CATALOG)}"
        )
    corpus = TraceCorpus.create(directory)
    for name in names:
        base = generate_trace(name, duration=duration, seed=seed)
        corpus.add(
            name,
            _tiled_chunks(base, repetitions),
            chunk_requests=(
                DEFAULT_CHUNK_REQUESTS if chunk_requests is None
                else chunk_requests
            ),
            extra={
                "spec": name,
                "seed": seed,
                "duration_arg": duration,
                "rate_scale": 1.0,
                "repetitions": repetitions,
                "service_positioning": CATALOG[name].service_positioning,
            },
        )
    return corpus


def _tiled_chunks(base: Trace, repetitions: int):
    """Yield ``repetitions`` time-shifted copies of ``base`` as chunks."""
    if len(base) == 0:
        yield base
        return
    # Period covers the base span plus one mean inter-arrival, so the
    # seam gap looks like an ordinary arrival gap, not a cliff.
    span = float(base.times[-1] - base.times[0])
    period = span + max(
        (span / max(len(base) - 1, 1)), 1e-6
    )
    for i in range(repetitions):
        if i == 0:
            yield base
        else:
            yield Trace(
                base.times + i * period,
                base.lbns,
                base.sectors,
                base.is_write,
                name=base.name,
                description=base.description,
                capacity_sectors=base.capacity_sectors,
                validate=False,
            )


def trace_idle_intervals(name: str, trace: Trace):
    """Idle intervals of ``trace`` under catalog entry ``name``'s service model.

    Returns ``(starts, durations)`` numpy arrays; see
    :func:`repro.traces.idle.idle_intervals`.
    """
    if name not in CATALOG:
        raise KeyError(f"unknown trace {name!r}")
    return idle_intervals_from_trace(
        trace, positioning=CATALOG[name].service_positioning
    )
