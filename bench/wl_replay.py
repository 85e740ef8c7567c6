"""``replay_scrub`` and ``replay_dense``: trace replay with scrubbers.

Both replay a seeded catalog trace open-loop against the simulated
drive under the Fig. 7 configurations, once per event kernel.  The
stack is built from the public constructors exactly as
:func:`repro.analysis.replay_cdf.replay_with_scrubber` builds it (the
warm-up checks the two agree), so that the traced run can pass timing
proxies for the drive, the I/O scheduler and the scrub algorithm.

``replay_scrub`` is scrubber-dominated (scrub requests outnumber
foreground ones about ten to one); ``replay_dense`` is deliberately
overloaded (arrivals above the drive's service rate), so the scheduler
queue is deep and the scrubber never sees an idle gap.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time

import numpy as np

from harness import Measurement, NoTrace, Workload
from repro.analysis.impact import ScrubberSetup
from repro.analysis.replay_cdf import replay_with_scrubber
from repro.core.policies.device import WaitingScrubber
from repro.core.scrubber import ScrubAlgorithm, Scrubber
from repro.core.sequential import SequentialScrub
from repro.disk.drive import Drive
from repro.disk.models import PRESETS
from repro.sched.base import IOSchedulerBase
from repro.sched.cfq import CFQScheduler
from repro.sched.device import BlockDevice
from repro.sched.noop import NoopScheduler
from repro.sim import make_simulation
from repro.traces import generate_trace
from repro.workloads.replay import TraceReplayer

KERNELS = ("reference", "vector")
IDLE_GATE = 0.010
#: Layer behind each timing proxy -> its key in a replay's stats.
_LAYERS = {"disk.drive.service": "drive", "sched.scheduler": "sched", "core.algorithm": "algo"}
_PROXY_KEYS = tuple(f"{key}_{what}" for key in _LAYERS.values() for what in ("s", "calls"))

#: The Fig. 7 legend.
CONFIGS = {
    "none": {},
    "cfq-sequential": {"scrubber": ScrubberSetup(algorithm="sequential")},
    "cfq-staggered-128": {
        "scrubber": ScrubberSetup(algorithm="staggered", regions=128)
    },
    "waiting-100ms": {"waiting": {"threshold": 0.1, "request_bytes": 64 * 1024}},
}

#: Events per kernel phase-shape probe (the three PR 6 shapes).
PROBE_EVENTS = 200_000


# -- timing proxies (traced run only) -----------------------------------------

_clock = time.perf_counter


class TimedDrive(Drive):
    """A drive that times its own ``service`` calls."""

    calls = 0
    seconds = 0.0

    def service(self, command, now):
        start = _clock()
        breakdown = Drive.service(self, command, now)
        self.seconds += _clock() - start
        self.calls += 1
        return breakdown


class TimedScheduler(IOSchedulerBase):
    """Times the four scheduler hooks and tracks the deepest queue.

    The hooks are spelled out one by one: a shared wrapper taking
    ``*args`` costs as much as the cheaper hooks themselves.
    """

    def __init__(self, inner: IOSchedulerBase) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.seconds = 0.0
        self.depth_max = 0

    def add(self, request, now):
        inner = self.inner
        start = _clock()
        inner.add(request, now)
        self.seconds += _clock() - start
        self.calls += 1
        depth = len(inner)
        if depth > self.depth_max:
            self.depth_max = depth

    def select(self, now):
        start = _clock()
        selection = self.inner.select(now)
        self.seconds += _clock() - start
        self.calls += 1
        return selection

    def on_dispatch(self, request, now):
        start = _clock()
        self.inner.on_dispatch(request, now)
        self.seconds += _clock() - start
        self.calls += 1

    def on_complete(self, request, now):
        start = _clock()
        self.inner.on_complete(request, now)
        self.seconds += _clock() - start
        self.calls += 1

    def __len__(self):
        return len(self.inner)


class TimedAlgorithm(ScrubAlgorithm):
    """Times ``next_extent`` (and ``reset``) of a scrub algorithm."""

    def __init__(self, inner: ScrubAlgorithm) -> None:
        self.inner = inner
        self.calls = 0
        self.seconds = 0.0

    def reset(self, total_sectors, request_sectors):
        start = _clock()
        self.inner.reset(total_sectors, request_sectors)
        self.seconds += _clock() - start

    def next_extent(self):
        start = _clock()
        extent = self.inner.next_extent()
        self.seconds += _clock() - start
        self.calls += 1
        return extent


# -- one replay ---------------------------------------------------------------


def replay(trace, spec, config: dict, horizon: float, kernel: str, timed: bool):
    """One configuration on one kernel; returns outputs and proxy stats.

    Mirrors ``replay_with_scrubber`` line for line; ``timed`` swaps in
    the proxies above.
    """
    scrubber = config.get("scrubber")
    waiting = config.get("waiting")
    sim = make_simulation(kernel)
    scheduler = (
        NoopScheduler() if waiting is not None else CFQScheduler(idle_gate=IDLE_GATE)
    )
    drive_cls = TimedDrive if timed else Drive
    drive = drive_cls(spec, cache_enabled=False)
    if timed:
        scheduler = TimedScheduler(scheduler)
    device = BlockDevice(sim, drive, scheduler)
    replayer = TraceReplayer(sim, device, trace)
    replayer.start()

    agent = algorithm = None
    if scrubber is not None:
        algorithm = scrubber.build_algorithm()
        if timed:
            algorithm = TimedAlgorithm(algorithm)
        agent = Scrubber(
            sim,
            device,
            algorithm,
            request_bytes=scrubber.request_bytes,
            priority=scrubber.priority,
            soft_barrier=scrubber.user_level,
            delay=scrubber.delay,
            delay_mode="interval" if scrubber.user_level else "gap",
        )
    elif waiting is not None:
        algorithm = SequentialScrub()
        if timed:
            algorithm = TimedAlgorithm(algorithm)
        agent = WaitingScrubber(
            sim,
            device,
            algorithm,
            threshold=waiting["threshold"],
            request_bytes=waiting["request_bytes"],
        )
    if agent is not None:
        agent.start()
    sim.run(until=horizon)

    times = device.log.response_times("foreground")
    out = {
        "fg_requests": device.log.count("foreground"),
        "scrub_requests": agent.requests_issued if agent else 0,
        "scrub_bytes": agent.bytes_scrubbed if agent else 0,
        "fg_response_sha256": hashlib.sha256(times.tobytes()).hexdigest(),
    }
    stats = {"submitted": replayer.submitted}
    if timed:
        stats.update(
            drive_s=drive.seconds,
            drive_calls=drive.calls,
            sched_s=scheduler.seconds,
            sched_calls=scheduler.calls,
            depth_max=scheduler.depth_max,
            algo_s=algorithm.seconds if algorithm else 0.0,
            algo_calls=algorithm.calls if algorithm else 0,
        )
    return out, times, stats


def mean_slowdown(times: np.ndarray, baseline: np.ndarray) -> float:
    """Positional mean extra response time over the common prefix.

    ``ReplayResult.mean_slowdown_vs`` without its completed-count
    guard: on the overloaded ``replay_dense`` the FIFO ``Waiting``
    device legitimately completes a quarter fewer requests than CFQ.
    """
    n = min(len(times), len(baseline))
    return float((times[:n] - baseline[:n]).mean()) if n else math.nan


class _Replay(Workload):
    trace_name = ""
    duration = 0.0
    horizon = 0.0
    quick_duration = 0.0
    quick_horizon = 0.0
    configs: tuple = ()
    #: Foreground arrival rate of the replayed stretch, or 0 to replay
    #: the trace from its start.
    requests_per_s = 0.0

    def setup(self) -> None:
        self.spec = PRESETS["ultrastar"]()
        self.cut = self.quick_horizon if self.quick else self.horizon
        start = time.perf_counter()
        trace = generate_trace(
            self.trace_name,
            duration=self.quick_duration if self.quick else self.duration,
            seed=self.seed,
        )
        self.generate_s = time.perf_counter() - start
        self.generated = len(trace)
        if self.requests_per_s:
            # A bursty trace's first horizon-long stretch holds anything
            # from a dozen to thousands of requests depending on the
            # seed.  Replay the stretch whose count is nearest the
            # target instead, so that every seed gives the same kind of
            # workload.
            counts = trace.requests_per_bin(self.cut)
            nearest = int(np.argmin(np.abs(counts - self.requests_per_s * self.cut)))
            start = float(trace.times[0]) + nearest * self.cut
            trace = trace.window(start, start + self.cut)
        self.trace = trace

    def warmup(self) -> Measurement:
        m = self.measure(0.0, NoTrace())
        # The hand-built stack must be the library's own.
        for name, ours in m.outputs["reference"].items():
            theirs = replay_with_scrubber(
                self.trace, self.spec, horizon=self.cut, idle_gate=IDLE_GATE,
                **CONFIGS[name],
            )
            m.check(
                (theirs.fg_requests, theirs.scrub_requests, theirs.scrub_bytes)
                == (ours["fg_requests"], ours["scrub_requests"], ours["scrub_bytes"])
                and hashlib.sha256(theirs.fg_response_times.tobytes()).hexdigest()
                == ours["fg_response_sha256"],
                f"{name}: bench-built stack differs from replay_with_scrubber",
            )
        return m

    def _grid(self, m: Measurement, tracer, kernel: str) -> dict:
        """Every configuration once on ``kernel``.

        Returns the simulated outputs per configuration plus, summed
        over the grid: requests completed, corrected and raw seconds,
        and (traced run) the proxies' seconds and call counts.
        """
        timed = tracer.enabled
        grid = {"outputs": {}, "requests": 0, "seconds": 0.0, "raw_s": 0.0,
                "submitted": 0, "depth_max": 0}
        grid.update(dict.fromkeys(_PROXY_KEYS, 0))
        baseline = None
        for name in self.configs:
            # A finished simulation is a web of reference cycles; free
            # the previous one outside the timed section, so that its
            # collection is not charged to this configuration.
            gc.collect()
            self.clock.mark()
            try:
                with tracer.span("replay.config", kernel=kernel, config=name):
                    out, times, stats = replay(
                        self.trace, self.spec, CONFIGS[name], self.cut, kernel, timed
                    )
                    for layer, key in _LAYERS.items() if timed else ():
                        tracer.aggregate(layer, stats[f"{key}_s"], stats[f"{key}_calls"])
            except Exception as exc:  # a configuration that raises is a failed operation
                m.check(False, f"{kernel}/{name}: {exc!r}")
                continue
            seconds, raw = self.clock.lap()
            if baseline is None:
                baseline = times
            slowdown = mean_slowdown(times, baseline)
            # Finite, not non-negative: a scrub request reorders the
            # queue, and on some seeds that shaves microseconds off the
            # foreground's mean.
            m.check(math.isfinite(slowdown), f"{kernel}/{name}: mean slowdown {slowdown!r}")
            out["mean_slowdown"] = slowdown.hex()
            grid["outputs"][name] = out
            grid["requests"] += out["fg_requests"] + out["scrub_requests"]
            grid["seconds"] += seconds
            grid["raw_s"] += raw
            grid["submitted"] += stats["submitted"]
            if timed:
                for key in _PROXY_KEYS:
                    grid[key] += stats[key]
                grid["depth_max"] = max(grid["depth_max"], stats["depth_max"])
        return grid

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement()

        def rep(index: int) -> None:
            with tracer.span("replay.rep", rep=index):
                grids = {kernel: self._grid(m, tracer, kernel) for kernel in KERNELS}
            outputs = {kernel: grid["outputs"] for kernel, grid in grids.items()}
            m.check(
                outputs["reference"] == outputs["vector"],
                "reference and vector kernels disagree",
            )
            for kernel, metric in zip(KERNELS, ("main", "alt")):
                grid = grids[kernel]
                if grid["seconds"] > 0:
                    m.add(f"{metric}_per_s", grid["requests"] / grid["seconds"])
                    m.add(f"raw_{metric}_per_s", grid["requests"] / grid["raw_s"])
                m.add(
                    f"loop_{kernel}_s",
                    grid["raw_s"] - grid["drive_s"] - grid["sched_s"] - grid["algo_s"],
                )
            both = list(grids.values())
            for key in _PROXY_KEYS:
                m.add(key, sum(grid[key] for grid in both))
            m.add("depth_max", max(grid["depth_max"] for grid in both))
            if index == 0:
                m.outputs = outputs
                m.counts = {
                    "workloads.replay.submitted": sum(g["submitted"] for g in both),
                    "sim.requests": grids["reference"]["requests"],
                }
            else:
                m.check(outputs == m.outputs, f"rep {index}: outputs changed")

        self.run_reps(rep, seconds)
        return m

    def layer_metrics(self, plain: Measurement, traced: Measurement) -> dict:
        values = {
            "replay.sim_requests_per_s": plain.median("raw_main_per_s"),
            "replay.sim_requests_per_s_vector": plain.median("raw_alt_per_s"),
            "disk.drive.service_calls": traced.median("drive_calls"),
            "disk.drive.service_s": traced.median("drive_s"),
            "sched.scheduler_calls": traced.median("sched_calls"),
            "sched.scheduler_s": traced.median("sched_s"),
            "sched.queue_depth_max": traced.median("depth_max"),
            "core.algorithm.next_extent_calls": traced.median("algo_calls"),
            "core.algorithm_s": traced.median("algo_s"),
            "workloads.replay.submitted": traced.counts["workloads.replay.submitted"],
            "sim.loop_unattributed_s.reference": traced.median("loop_reference_s"),
            "sim.loop_unattributed_s.vector": traced.median("loop_vector_s"),
            "traces.generate_s": self.generate_s,
            "traces.requests": self.generated,
        }
        events = PROBE_EVENTS // 20 if self.quick else PROBE_EVENTS
        for shape, run in KERNEL_SHAPES.items():
            clocks = {}
            for kernel in KERNELS:
                start = time.perf_counter()
                clocks[kernel] = run(kernel, events)
                values[f"sim.events_per_s.{shape}.{kernel}"] = events / (
                    time.perf_counter() - start
                )
            traced.check(
                clocks["reference"] == clocks["vector"],
                f"kernel probe {shape}: final clocks differ {clocks}",
            )
        return values


class ReplayScrub(_Replay):
    name = "replay_scrub"
    trace_name = "MSRsrc11"
    duration, horizon = 6 * 3600.0, 40.0
    quick_duration, quick_horizon = 1800.0, 4.0
    requests_per_s = 25.0
    configs = ("none", "cfq-sequential", "cfq-staggered-128", "waiting-100ms")


class ReplayDense(_Replay):
    name = "replay_dense"
    trace_name = "TPCdisk66"
    duration, horizon = 600.0, 12.0
    quick_duration, quick_horizon = 60.0, 1.0
    configs = ("none", "cfq-sequential", "waiting-100ms")


# -- kernel phase shapes (timer batch, mixed, process churn) ------------------


def _batch(kernel: str, events: int) -> float:
    """Pre-schedule a window of pure timers, drain it."""
    sim = make_simulation(kernel)

    def producer(sim):
        if kernel == "vector":
            sim.schedule_timers((np.arange(events - 1, dtype=np.float64) % 97) + 1.0)
        else:
            for i in range(events - 1):
                sim.timeout((i % 97) + 1.0)
        yield sim.timeout(100.0)

    sim.process(producer(sim))
    sim.run()
    return sim.now


def _mixed(kernel: str, events: int, batch: int = 200) -> float:
    """Small timer batches interleaved with process decision points."""
    sim = make_simulation(kernel)
    delays = (np.arange(batch, dtype=np.float64) % 13) + 0.25

    def churner(sim):
        for _ in range(max(1, events // (batch + 1))):
            if kernel == "vector":
                sim.schedule_timers(delays)
            else:
                for i in range(batch):
                    sim.timeout((i % 13) + 0.25)
            yield sim.timeout(20.0)

    sim.process(churner(sim))
    sim.run()
    return sim.now


def _process(kernel: str, events: int, batch: int = 200) -> float:
    """Short-lived processes, two yields each: nothing to batch."""
    sim = make_simulation(kernel)
    workers = events // 4

    def worker(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    def spawner(sim):
        spawned = 0
        while spawned < workers:
            for _ in range(min(batch, workers - spawned)):
                sim.process(worker(sim))
            spawned += batch
            yield sim.timeout(3.0)

    sim.process(spawner(sim))
    sim.run()
    return sim.now


KERNEL_SHAPES = {"batch": _batch, "mixed": _mixed, "process": _process}
