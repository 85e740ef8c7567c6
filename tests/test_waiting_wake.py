"""The Waiting scrubber sleeps through foreground traffic (DESIGN §18).

Its observer wakes the scrubber's process only when the disk drains, when
a request reaches an idle disk, or while the outstanding count is
negative; a submit or completion that leaves a busy disk busy is counted
and nothing more.  :class:`_WakeOnEveryEvent` keeps the observer that
woke the process on every foreground event, the golden oracle: on fuzzed
stacks the two must log the same requests at the same float times, and
the new one may only fire fewer events.
"""

import numpy as np
import pytest

from repro.analysis import stack as stack_module
from repro.analysis.detection import shrunk_spec
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.core.policies.device import WaitingScrubber
from repro.core.sequential import SequentialScrub
from repro.disk import DiskCommand
from repro.disk.drive import Drive
from repro.disk.models import PRESETS
from repro.faults import RemediationPolicy, build_model
from repro.obs.sink import TelemetrySink
from repro.sched import IORequest
from repro.traces import Trace
from repro.verify.differential import outcome_signature
from repro.verify.fuzzer import generate_configs
from repro.verify.scenario import run_scenario


class _WakeOnEveryEvent(WaitingScrubber):
    """The observer before the wake rule: every foreground event wakes."""

    def _observe(self, kind, request, now):
        if request.source == self.source:
            return
        if kind == "submit":
            self._fg_outstanding += 1
        elif kind == "complete":
            self._fg_outstanding -= 1
            if self._fg_outstanding == 0:
                self._last_fg_completion = now
        if not self._activity.triggered:
            self._activity.succeed()


class _EventCount(TelemetrySink):
    """Counts the events the engine pops, and observes nothing else."""

    def __init__(self):
        self.events = 0

    def engine_run(self, events, sim_time, wall_seconds):
        self.events += events


def _bursts(seed, horizon, total_sectors):
    """Bursts of 1-6 requests under 1 ms apart (so the queue holds several)
    between gaps of up to 250 ms (so every threshold is reached)."""
    rng = np.random.default_rng(seed)
    times, now = [], 0.0
    while now < horizon:
        for _ in range(int(rng.integers(1, 7))):
            times.append(now)
            now += float(rng.uniform(0.0, 0.001))
        now += float(rng.uniform(0.0, 0.25))
    n = len(times)
    sectors = rng.choice([8, 16, 128], size=n)
    return Trace(
        np.array(times),
        rng.integers(0, total_sectors - 128, size=n),
        sectors,
        rng.random(n) < 0.3,
        name="bursts",
    )


def _run(cls, scheduler, threshold, foreground, drain, faults, seed):
    """One stack with a ``cls`` Waiting scrubber; what it did, exactly."""
    spec = shrunk_spec(PRESETS["ultrastar"](), cylinders=30)
    horizon = 2.0
    total = Drive(spec, cache_enabled=False).total_sectors
    plan = None
    if faults:
        plan = build_model(
            "bursts", inter_burst_mean=0.05, mean_burst_length=4.0,
            in_burst_time_mean=0.01,
        ).generate(total, horizon, seed)
    remediation = RemediationPolicy() if faults else None
    sink = _EventCount()
    # A Waiting setup gets the FIFO device, no setup gets CFQ; either
    # way the scrubber under test is put in by hand.
    stack = ScrubStack(
        spec,
        ScrubberSetup(algorithm="waiting", threshold=threshold)
        if scheduler == "noop" else None,
        idle_gate=0.002,
        cache_enabled=True,
        telemetry=sink,
        fault_plan=plan,
        spare_sectors=512 if faults else None,
        remediation=remediation,
    )
    scrubber = stack.scrubber = cls(
        stack.sim, stack.device, SequentialScrub(), threshold=threshold,
        remediation=remediation,
    )
    if foreground == "trace":
        stack.replay(_bursts(seed, horizon, total))
    else:
        stack.reader("random", seed=seed, think_mean=0.04)
    stack.run(horizon, drain=drain)
    # Submission numbers come from one process-wide counter: compare
    # them from the run's first.
    requests = stack.device.log.requests()
    first = min(r.seq for r in requests)
    log = [
        (
            r.seq - first, r.source, r.command.lbn, r.command.sectors,
            float.hex(r.submit_time), float.hex(r.dispatch_time),
            float.hex(r.complete_time),
        )
        for r in requests
    ]
    counts = (
        scrubber.collisions, scrubber.requests_issued, scrubber.bytes_scrubbed,
        scrubber.errors_seen, scrubber.sectors_remapped,
        float.hex(stack.sim.now),
    )
    fault_log = (
        [(float.hex(r.time), r.kind.value, r.lbn, r.source, r.ok)
         for r in stack.faults.log.records]
        if faults else None
    )
    return log, counts, fault_log, sink.events


@pytest.mark.parametrize("foreground", ["trace", "reader"])
@pytest.mark.parametrize("threshold", [0.0, 0.005, 0.1])
@pytest.mark.parametrize("scheduler", ["noop", "cfq"])
@pytest.mark.parametrize("drain,faults", [(False, False), (True, True)])
def test_the_wake_rule_changes_nothing_but_the_event_count(
    scheduler, threshold, foreground, drain, faults
):
    seed = int(np.random.default_rng(
        [("noop", "cfq").index(scheduler), int(threshold * 1000),
         ("trace", "reader").index(foreground), int(drain)]
    ).integers(2**31 - 1))
    case = (scheduler, threshold, foreground, drain, faults, seed)
    old, new = _run(_WakeOnEveryEvent, *case), _run(WaitingScrubber, *case)
    assert new[:3] == old[:3]
    assert any(source == "scrubber" for _, source, *_ in new[0])
    assert new[3] <= old[3]


def test_fuzzed_scenarios_agree(monkeypatch):
    """``run_scenario`` outcomes (drain, remediation, the fault log, the
    response-time array) are equal but for the sequence numbers the
    skipped wakes did not consume."""
    configs = [
        c for c in generate_configs(seed=11, n=60) if c["algorithm"] == "waiting"
    ][:8]
    assert {c["family"] for c in configs} == {
        "synthetic", "trace-replay", "fault-injected"
    }
    for params in configs:
        new = run_scenario(**params)
        with monkeypatch.context() as patch:
            patch.setattr(stack_module, "WaitingScrubber", _WakeOnEveryEvent)
            old = run_scenario(**params)
        assert new.pop("event_seq") <= old.pop("event_seq")
        assert outcome_signature(new, include_telemetry=False) == (
            outcome_signature(old, include_telemetry=False)
        ), params


def _resumes(cls):
    """Outstanding foreground counts the scrubber's process sees each
    time it is resumed, over one burst of four reads on an idle disk."""
    seen = []

    class Counting(cls):
        def _run(self):
            inner = super()._run()
            target = next(inner)
            while True:
                value = yield target
                seen.append(self._fg_outstanding)
                target = inner.send(value)

    spec = shrunk_spec(PRESETS["ultrastar"](), cylinders=30)
    stack = ScrubStack(
        spec, ScrubberSetup(algorithm="waiting", threshold=0.1),
        idle_gate=0.002, cache_enabled=False,
    )
    scrubber = stack.scrubber = Counting(
        stack.sim, stack.device, SequentialScrub(), threshold=0.1
    )
    sim, device = stack.sim, stack.device

    def burst():
        yield sim.timeout(0.01)
        done = [
            device.submit(IORequest(DiskCommand.read(i * 500, 8)))
            for i in range(4)
        ]
        for event in done:
            yield event

    sim.process(burst())
    stack.run(0.05)
    assert scrubber.requests_issued == 0
    assert device.log.count("foreground") == 4
    return seen


def test_a_busy_disk_resumes_the_scrubber_only_at_its_edges():
    # One resume for the first submit, none for the three submits and
    # three completions that leave the count positive, one at the drain.
    assert _resumes(WaitingScrubber) == [4, 0]
    assert _resumes(_WakeOnEveryEvent) == [4, 3, 2, 1, 0]
