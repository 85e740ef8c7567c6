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
* ``replay+recorder`` -- the same stack with a ``Recorder`` attached,
  whose metrics snapshot and Chrome events are then read: what
  per-request telemetry costs, recording and reading together;
* ``replay+invariants`` -- the same stack under an ``InvariantSink``
  held to the replay (``expect_replay``) and then ``finish()``-ed:
  what the checker costs, online hooks and log pass together;
* ``throughput`` -- ``standalone_scrub_throughput`` of a 128-region
  staggered scrubber alone on the drive for 2 s, the second assembly
  site (a point of Figs. 4, 5a, 5b);
* ``detect`` -- ``run_detection_experiment`` with a fault plan,
  remediation, a trace foreground and the drain;
* ``waiting`` -- ``replay_with_scrubber`` of the Waiting scrubber
  (100 ms, 64 KiB) on its FIFO device over the benchmark's dense
  stretch: the first 12 s of a 600 s TPCdisk66 trace (seed 7).

Nothing in the probe calls ``gc.collect()``: between runs a driver
allocates almost nothing with the collector on, so what reference
counting does not free stays (DESIGN sections 6.1 and 18).

The three ``replay`` rows and ``waiting`` then make one more call under ``sys.setprofile`` and print, per request (foreground
completed plus scrub issued, as the benchmark counts them), the
Python-level calls (``"call"`` events: function frames and generator
resumptions) and the events the kernel pops off its heap (``"c_call"``
events of ``heapq.heappop``).  Both repeat exactly for a seed on one
interpreter version.  On CPython 3.11 ``replay`` reads 31.53 calls
(323 830 over 10 272 requests, DESIGN section 6.3; limit 31.61): a
frame the per-request path pays for nothing, such as a scan of every
CFQ BE queue per ``select``, shows as a whole call or more.
``waiting`` reads 34.35 (limit 34.43, the same slack): a Waiting
scrubber woken by every foreground submit and completion again (DESIGN
section 18) reads 65.92.  ``replay+recorder`` reads 48.14 (limit
48.22): 16.6 calls a request pay for the recorder's hooks and for the
pass over the request log that its snapshot and Chrome export make; a
recorder that copied each request into a table of its own as it
completed read 76.75, and one more call a request went to a no-op
per-command drive hook.  ``replay+invariants`` reads 41.92 (limit
42.00): a checker that kept every completed request's sequence number
and every pass's VERIFY extents, and judged the fault lifecycle online,
read 45.92.  The events read 3.14 (the three ``replay`` rows, limit
3.16) and 3.51 (``waiting``, limit 3.53).
A push with no callback costs no Python frame, so only the event count
sees a replayed request's completion pushed again: 3.24 and 4.51.

Exit status 1 when call 12 stands more than 2 MB or 1000 tracked
objects above call 2 (call 1 pays for imports and first-use caches), or
when a row's calls or events per request exceed its
:data:`CALLS_PER_REQUEST` or :data:`EVENTS_PER_REQUEST` limit.  The
seconds are printed for the reader and never judged.
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
#: Limits on Python-level calls per request, by row.
CALLS_PER_REQUEST = {
    "replay": 31.61, "replay+recorder": 48.22, "replay+invariants": 42.0,
    "waiting": 34.43,
}
#: Limits on kernel events popped per request, by row.
EVENTS_PER_REQUEST = {
    "replay": 3.16, "replay+recorder": 3.16, "replay+invariants": 3.16,
    "waiting": 3.53,
}

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

row, calls, per_request = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
spec = PRESETS["ultrastar"]()
if row.startswith("replay"):
    # bench/wl_replay.py's window: the 40 s stretch of a 6 h MSRsrc11
    # trace whose request count is nearest 25 a second.
    trace = generate_trace("MSRsrc11", duration=6 * 3600.0, seed=7)
    nearest = int(np.argmin(np.abs(trace.requests_per_bin(40.0) - 25.0 * 40.0)))
    start = float(trace.times[0]) + nearest * 40.0
    trace = trace.window(start, start + 40.0)
    setup = ScrubberSetup(algorithm="staggered", regions=128)
if row == "replay":
    def call():
        return replay_with_scrubber(trace, spec, scrubber=setup, horizon=40.0)
elif row.startswith("replay+"):
    # replay_with_scrubber's stack with a sink: a Recorder, read once it
    # ran, or an InvariantSink held to the replay and then finished.
    from types import SimpleNamespace
    from repro.analysis.stack import ScrubStack
    from repro.disk.drive import Drive
    from repro.obs.sink import Recorder
    from repro.verify.invariants import InvariantSink
    total_sectors = Drive(spec).total_sectors
    recording = row == "replay+recorder"
    def call():
        sink = Recorder() if recording else InvariantSink(total_sectors)
        stack = ScrubStack(
            spec, setup, idle_gate=0.010, cache_enabled=False, telemetry=sink
        )
        if not recording:
            sink.expect_replay(trace, 1.0, stack.sim.now)
        stack.replay(trace)
        stack.run(40.0)
        if recording:
            sink.snapshot()
            sink.chrome_events()
        else:
            sink.finish()
        return SimpleNamespace(
            fg_requests=stack.device.log.count("foreground"),
            scrub_requests=stack.scrubber.requests_issued,
        )
elif row == "waiting":
    # bench/wl_replay.py's replay_dense stretch and Waiting setup.
    trace = generate_trace("TPCdisk66", duration=600.0, seed=7)
    waiting = {"threshold": 0.1, "request_bytes": 64 * 1024}
    def call():
        return replay_with_scrubber(trace, spec, waiting=waiting, horizon=12.0)
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
calls_per_request = events_per_request = None
if per_request:
    from heapq import heappop
    frames = events = 0
    def count(frame, event, arg):
        global frames, events
        if event == "call":
            frames += 1
        elif event == "c_call" and arg is heappop:
            events += 1
    sys.setprofile(count)
    result = call()
    sys.setprofile(None)
    requests = result.fg_requests + result.scrub_requests
    calls_per_request = frames / requests
    events_per_request = events / requests
print(json.dumps({
    "samples": samples, "calls_per_request": calls_per_request,
    "events_per_request": events_per_request,
}))
"""

ROWS = (
    "replay", "replay+recorder", "replay+invariants", "throughput", "detect",
    "waiting",
)


def measure(row: str) -> dict:
    """Twelve serial calls of ``row`` in a fresh interpreter: their
    ``samples`` and, for a row with limits, ``calls_per_request`` and
    ``events_per_request``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [
            sys.executable, "-c", _PROBE, row, str(CALLS),
            "1" if row in CALLS_PER_REQUEST else "0",
        ],
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
        if probe["calls_per_request"] is not None:
            for what, key, limits in (
                ("Python-level calls", "calls_per_request", CALLS_PER_REQUEST),
                ("kernel events", "events_per_request", EVENTS_PER_REQUEST),
            ):
                reading, limit = probe[key], limits[row]
                verdict = "OK" if reading <= limit else "OVER BUDGET"
                print(
                    f"{row:<17} {reading:.2f} {what} per request "
                    f"(limit {limit}): {verdict}"
                )
                failed = failed or reading > limit
    print("stack budget [FAIL]" if failed else "stack budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
