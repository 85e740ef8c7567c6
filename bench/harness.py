"""Shared machinery of the benchmark: contract, timer loop, spans, digests.

Everything here is workload-agnostic.  A workload module provides a
class with ``setup`` / ``warmup`` / ``measure`` / ``teardown`` (see
:class:`Workload`); :func:`run_workload` drives it, checks the outputs
and assembles the metric rows that ``run.py`` prints.

All timing is :func:`time.perf_counter`.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The checkout root (``bench/`` sits directly below it).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lands here (git-ignored).
OUT = ROOT / "bench" / "out"

#: Set-up is repeated this many times per run and the median reported,
#: so one slow fork or page-cache miss does not set ``setup_s``.
SETUP_REPS = 3


def load_contract() -> dict:
    """``BENCHMARK.json`` — the one registry of metric names and units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """What produced the numbers; no timestamps, no host names."""
    import numpy

    import repro

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


# -- host-speed correction ----------------------------------------------------
#
# The reference box is a two-vCPU VM on a shared host, and identical
# CPU-bound work takes anywhere from 0.8x to 1.5x its usual time there,
# in phases that last seconds to minutes (CPU time moves with wall time,
# so it is not preemption).  A throughput measured as-is would move by
# more than any bound worth having.  So every timed section is bracketed
# by two runs of a fixed piece of reference work that touches nothing in
# ``src/``, and its seconds are scaled by nominal / measured reference
# time: the end-to-end metrics read "at nominal host speed".  The raw
# seconds are kept too and feed the per-layer metrics.


def _tick_py() -> float:
    """A miniature event loop: heap, generators, small objects.

    Interpreter-bound like the simulator's own loop, so the host's
    speed swings move both alike.
    """
    start = time.perf_counter()
    heap: list = []
    seen = {}

    def process(k):
        for j in range(4):
            yield 1.0 + ((k * 7 + j) % 13)

    for k in range(1000):
        g = process(k)
        heapq.heappush(heap, (next(g), k, g))
    while heap:
        now, k, g = heapq.heappop(heap)
        seen[k] = [now, k]
        try:
            heapq.heappush(heap, (now + next(g), k, g))
        except StopIteration:
            pass
    return time.perf_counter() - start


_TICK_ARRAY = None


def _tick_np() -> float:
    """Sort and reduce a fixed array: memory-bound numpy, like the
    vectorised interval simulator."""
    global _TICK_ARRAY
    import numpy as np

    if _TICK_ARRAY is None:
        _TICK_ARRAY = np.random.default_rng(0).random(500_000)
    start = time.perf_counter()
    float(np.sort(_TICK_ARRAY)[::7].sum())
    return time.perf_counter() - start


#: kind -> (reference work, its duration on the reference box at its
#: usual speed).  The constants only fix the scale of the corrected
#: numbers; changing them shifts every run alike.
_REFERENCES = {"py": (_tick_py, 0.0050), "np": (_tick_np, 0.0040)}


class HostClock:
    """Times sections, correcting for the host's momentary speed.

    ``mark()`` starts a section, ``lap()`` ends it (and starts the
    next) and returns ``(corrected, raw)`` seconds.  ``kind=None``
    corrects nothing — for timings that are waits, not work.
    """

    def __init__(self, kind: Optional[str]) -> None:
        self._tick, self._nominal = _REFERENCES.get(kind, (None, 0.0))
        #: nominal / measured reference time per section; 1.0 = usual.
        self.speeds: List[float] = []

    def mark(self) -> None:
        self._ref = self._tick() if self._tick else 0.0
        self._start = time.perf_counter()

    def lap(self) -> tuple:
        raw = time.perf_counter() - self._start
        if self._tick is None:
            self._start = time.perf_counter()
            return raw, raw
        before = self._ref
        self.mark()
        speed = self._nominal / ((before + self._ref) / 2)
        self.speeds.append(speed)
        return raw * speed, raw


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``(id, name, start, end, parent, workload)``; the parent
    is whatever span the same thread had open when this one started.
    :meth:`aggregate` records work that is too fine-grained for one
    span per call (a proxy around ``Drive.service`` sees tens of
    thousands of calls per replay) as a single child carrying the
    summed seconds and the call count.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str, attrs: dict) -> dict:
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "workload": self.workload,
            **attrs,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, attrs)
        stack = self._local.stack
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def aggregate(self, name: str, seconds: float, calls: int) -> None:
        span = self._open(name, {"aggregate": True, "calls": calls})
        span["start"] = 0.0
        span["end"] = seconds

    def layers(self) -> Dict[str, dict]:
        """Per span name: seconds, self seconds, calls.

        Self time is a span's duration minus its children's.
        """
        child_s: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] = (
                    child_s.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        out: Dict[str, dict] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            row = out.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += duration
            row["self_s"] += duration - child_s.get(span["id"], 0.0)
            row["calls"] += span.get("calls", 1)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"workload": self.workload, "layers": self.layers(), "spans": self.spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class NoTrace:
    """The untraced run's stand-in: same calls, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def aggregate(self, name: str, seconds: float, calls: int) -> None:
        pass


# -- results ------------------------------------------------------------------


@dataclass
class Measurement:
    """What one measured window produced.

    ``samples`` maps a metric name to its per-repetition values (the
    reported value is their median); ``counts`` are exact integers that
    must repeat for a seed; ``outputs`` is the canonical simulated
    output the digest is taken over.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    outputs: object = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


def canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats by ``repr``."""
    return json.dumps(obj, sort_keys=True, default=_jsonable)


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, set, frozenset)):
        return list(obj)
    raise TypeError(f"not canonicalisable: {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def peak_rss_mb() -> float:
    """Max RSS of this process and of its waited-for children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- the workload protocol ----------------------------------------------------


class Workload:
    """Base class of the five workloads.

    ``seed`` is the only thing the inputs depend on; ``quick`` selects
    the seconds-long sizes ``test_bench.py`` uses.  ``tmp`` is a
    per-run scratch directory inside the checkout.
    """

    name = ""
    #: Which reference work corrects this workload's timed sections
    #: (see :class:`HostClock`): the one whose bottleneck it shares.
    reference: Optional[str] = "py"
    #: Fewest repetitions a measured window holds.
    min_reps = 3

    def __init__(self, seed: int, quick: bool, tmp: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        self.clock = HostClock(self.reference)
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        """A new empty directory (cold caches, fresh journals)."""
        self._dirs += 1
        path = self.tmp / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def run_reps(self, rep: Callable[[int], None], seconds: float) -> None:
        """Call ``rep(i)`` until the next one would overrun ``seconds``.

        At least ``min_reps`` run regardless (one in the warm-up, whose
        ``seconds`` is 0, and under ``--quick``).  Garbage is collected between repetitions, so
        that one repetition's reference cycles are not charged to the
        next one's timers.
        """
        min_reps = self.min_reps if seconds and not self.quick else 1
        start = time.perf_counter()
        done = 0
        while True:
            gc.collect()
            rep(done)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_reps and elapsed + elapsed / done > seconds:
                return

    def setup(self) -> None:
        """Generate the inputs from the seed; start what must run."""

    def teardown(self) -> None:
        """Stop and release whatever :meth:`setup` started."""

    def warmup(self) -> Measurement:
        """One discarded repetition; its outputs are the reference."""
        return self.measure(0.0, NoTrace())

    def measure(self, seconds: float, tracer) -> Measurement:
        raise NotImplementedError

    def layer_metrics(self, plain: Measurement, traced: Measurement) -> dict:
        """Per-layer metric values from a traced run's two windows."""
        raise NotImplementedError


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: int
    quick: bool
    seconds: float
    correct: bool
    attempted: int
    failed: int
    errors: List[str]
    result_digest: str
    counts: Dict[str, int]
    sample_counts: Dict[str, int]
    metrics: Dict[str, dict]
    env: dict

    def final_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )

    def record(self) -> dict:
        return dict(self.__dict__)


def run_workload(
    factory: Callable[..., Workload],
    seed: int,
    seconds: float,
    trace: int,
    quick: bool,
    import_s: float,
) -> RunResult:
    """Set up, warm up, measure, check; see the module docstring."""
    contract = load_contract()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    # Children (the service subprocess, supervised workers) must keep
    # their temporary files inside the checkout too.
    previous_tmp = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    workload = factory(seed, quick, tmp)
    setup_samples = []
    clock = HostClock("py")
    try:
        for attempt in range(SETUP_REPS):
            if attempt:
                workload.teardown()
            clock.mark()
            workload.setup()
            setup_samples.append(clock.lap()[0])
        setup_s = import_s + statistics.median(setup_samples)

        reference = workload.warmup()
        tracer = None
        if trace:
            plain = workload.measure(seconds / 2, NoTrace())
            tracer = Tracer(workload.name)
            traced = workload.measure(seconds / 2, tracer)
            windows = [reference, plain, traced]
        else:
            plain = workload.measure(seconds, NoTrace())
            traced = None
            windows = [reference, plain]
        final = Measurement()
        for window in windows[1:]:
            if window.outputs is None:
                # service_mix: how many jobs a window completes depends
                # on the host, so only the warm-up's fixed jobs are kept.
                continue
            final.check(
                window.counts == reference.counts,
                f"counts changed between windows: {window.counts} "
                f"vs {reference.counts}",
            )
            final.check(
                canonical(window.outputs) == canonical(reference.outputs),
                "simulated outputs changed between windows",
            )
        windows.append(final)

        if trace:
            values = workload.layer_metrics(plain, traced)
            # How far the per-layer seconds can be trusted: the traced
            # half-window's main-path slowdown against the plain half.
            values["bench.trace_overhead_fraction"] = (
                plain.median("main_per_s") / traced.median("main_per_s") - 1.0
            )
            speeds = workload.clock.speeds
            values["bench.host_speed"] = statistics.median(speeds) if speeds else 1.0
            declared = contract["per_layer"]
            tracer.write(OUT / f"trace-{workload.name}.json")
        else:
            values = {
                "setup_s": setup_s,
                "main_per_s": plain.median("main_per_s"),
                "alt_per_s": plain.median("alt_per_s"),
                "peak_rss_mb": peak_rss_mb(),
            }
            declared = contract["end_to_end"]
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
        tempfile.tempdir = previous_tmp[1]
        if previous_tmp[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous_tmp[0]

    names = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload never enters reads 0.
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    failed = sum(window.failed for window in windows)
    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=trace,
        quick=quick,
        seconds=seconds,
        correct=failed == 0,
        attempted=sum(window.attempted for window in windows),
        failed=failed,
        errors=[error for window in windows for error in window.errors],
        result_digest=digest(reference.outputs),
        counts=reference.counts,
        sample_counts={k: len(v) for k, v in sorted(plain.samples.items())},
        metrics=metrics,
        env=environment(),
    )
