"""Stack budget: what a finished full-stack run leaves behind in its process.

``make stack-budget`` runs this.  Every figure of the paper is a grid of
``ScrubStack`` runs made one after another in one long-lived process (a
CLI sweep, a ``SupervisedRunner`` worker, the ``verify`` fuzzer), so a
run that is not freed when its stack is dropped is a leak that grows
with the grid.  For each row a fresh interpreter makes twelve serial
calls and prints, after every call, the process's max RSS (the
high-water mark, which is what the benchmark's ``peak_rss_mb`` reads)
and the number of objects the cycle collector tracks:

* ``replay`` -- ``replay_with_scrubber`` of the Fig. 7
  ``cfq-staggered-128`` configuration on the benchmark's 40 s MSRsrc11
  window (seed 7);
* ``throughput`` -- ``standalone_scrub_throughput`` of a 128-region
  staggered scrubber alone on the drive for 2 s, the second assembly
  site (a point of Figs. 4, 5a, 5b);
* ``detect`` -- ``run_detection_experiment`` with a fault plan,
  remediation, a trace foreground and the drain.

Nothing in the probe calls ``gc.collect()``: between runs a driver
allocates almost nothing with the collector on, so what reference
counting does not free stays (DESIGN sections 6.1 and 18).

The ``replay`` row then makes one more call under ``sys.setprofile`` and
prints the Python-level calls (``"call"`` events: function frames and
generator resumptions) per request, foreground completed plus scrub
issued as the benchmark counts them.  The count repeats exactly for a
seed on one interpreter version; on CPython 3.11 it reads 31.62
(324 830 calls over 10 272 requests, DESIGN section 6.3), and a frame
the per-request path pays for nothing, such as a scan of every CFQ BE
queue per ``select``, shows as a whole call or more.

Exit status 1 when call 12 stands more than 2 MB or 1000 tracked
objects above call 2 (call 1 pays for imports and first-use caches), or
when the ``replay`` row's calls per request exceed
:data:`CALLS_PER_REQUEST`.  The seconds are printed for the reader and
never judged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CALLS = 12
GROWTH_MB = 2.0
GROWTH_OBJECTS = 1000
#: The ``replay`` row's limit on Python-level calls per request.
CALLS_PER_REQUEST = 31.7

_PROBE = """
import gc, json, resource, sys, time
import numpy as np
from repro.analysis.detection import run_detection_experiment, shrunk_spec
from repro.analysis.replay_cdf import replay_with_scrubber
from repro.analysis.stack import ScrubberSetup
from repro.analysis.throughput import standalone_scrub_throughput
from repro.core.staggered import StaggeredScrub
from repro.disk.models import PRESETS
from repro.traces import generate_trace

row, calls = sys.argv[1], int(sys.argv[2])
spec = PRESETS["ultrastar"]()
if row == "replay":
    # bench/wl_replay.py's window: the 40 s stretch of a 6 h MSRsrc11
    # trace whose request count is nearest 25 a second.
    trace = generate_trace("MSRsrc11", duration=6 * 3600.0, seed=7)
    nearest = int(np.argmin(np.abs(trace.requests_per_bin(40.0) - 25.0 * 40.0)))
    start = float(trace.times[0]) + nearest * 40.0
    trace = trace.window(start, start + 40.0)
    setup = ScrubberSetup(algorithm="staggered", regions=128)
    def call():
        return replay_with_scrubber(trace, spec, scrubber=setup, horizon=40.0)
elif row == "throughput":
    def call():
        assert standalone_scrub_throughput(spec, StaggeredScrub(128), horizon=2.0) > 0
else:
    spec = shrunk_spec(spec, cylinders=50)
    trace = generate_trace("MSRsrc11", duration=600.0, seed=7)
    def call():
        # A fault density for a 5 s horizon (the model's defaults are
        # calibrated for disk-days): some 600 latent errors, a few of
        # them found by the scrubber and taken through split / remap /
        # re-verify.
        result = run_detection_experiment(
            spec, algorithm="staggered", horizon=5.0, seed=7, trace=trace,
            model_params={"inter_burst_mean": 0.08, "in_burst_time_mean": 0.0016},
        )
        assert result.sectors_remapped > 0

samples = []
for _ in range(calls):
    begin = time.perf_counter()
    call()
    samples.append({
        "seconds": time.perf_counter() - begin,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objects": len(gc.get_objects()),
    })
calls_per_request = None
if row == "replay":
    frames = 0
    def count(frame, event, arg):
        global frames
        if event == "call":
            frames += 1
    sys.setprofile(count)
    result = call()
    sys.setprofile(None)
    calls_per_request = frames / (result.fg_requests + result.scrub_requests)
print(json.dumps({"samples": samples, "calls_per_request": calls_per_request}))
"""

ROWS = ("replay", "throughput", "detect")


def measure(row: str) -> dict:
    """Twelve serial calls of ``row`` in a fresh interpreter: their
    ``samples`` and, for ``replay``, ``calls_per_request``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, row, str(CALLS)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"probe exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def over_budget(samples: List[dict]) -> bool:
    second, last = samples[1], samples[-1]
    return (
        last["rss_mb"] - second["rss_mb"] > GROWTH_MB
        or last["objects"] - second["objects"] > GROWTH_OBJECTS
    )


def main() -> int:
    print(f"{'row':<17} {'call':>4} {'seconds':>8} {'rss MB':>8} {'tracked':>9}")
    failed = False
    for row in ROWS:
        probe = measure(row)
        samples = probe["samples"]
        for index, sample in enumerate(samples, start=1):
            print(
                f"{row:<17} {index:>4d} {sample['seconds']:>8.3f} "
                f"{sample['rss_mb']:>8.1f} {sample['objects']:>9d}"
            )
        if over_budget(samples):
            failed = True
            second, last = samples[1], samples[-1]
            print(
                f"{row:<17} OVER BUDGET: call {CALLS} is "
                f"{last['rss_mb'] - second['rss_mb']:+.1f} MB and "
                f"{last['objects'] - second['objects']:+d} tracked objects "
                f"above call 2"
            )
        calls = probe["calls_per_request"]
        if calls is not None:
            verdict = "OK" if calls <= CALLS_PER_REQUEST else "OVER BUDGET"
            print(
                f"{row:<17} {calls:.2f} Python-level calls per request "
                f"(limit {CALLS_PER_REQUEST}): {verdict}"
            )
            failed = failed or calls > CALLS_PER_REQUEST
    print("stack budget [FAIL]" if failed else "stack budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
