"""Tests for BlockDevice and RequestLog (repro.sched.device) plus the
noop/deadline schedulers, the records a request is made of and those
the drive builds for it, and the golden oracle for the dispatcher
(:class:`_ReferenceDevice`)."""

import pickle
import re
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest

from repro.analysis import stack as stack_module
from repro.analysis.detection import shrunk_spec
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.disk import DiskCommand, Drive, hitachi_ultrastar_15k450
from repro.disk.commands import CommandStatus, Opcode
from repro.disk.drive import ServiceBreakdown
from repro.disk.geometry import Location
from repro.disk.models import PRESETS
from repro.faults import RemediationPolicy, build_model
from repro.obs.sink import Recorder
from repro.sched import (
    BlockDevice,
    CFQScheduler,
    DeadlineScheduler,
    IORequest,
    NoopScheduler,
    PriorityClass,
)
from repro.sched import request as request_module
from repro.sched.base import IOSchedulerBase
from repro.sched.device import RequestLog
from repro.sim import AnyOf, Event, ReusableTimeout, Simulation
from repro.traces import generate_trace
from repro.verify.differential import outcome_signature
from repro.verify.fuzzer import generate_configs
from repro.verify.invariants import InvariantSink
from repro.verify.scenario import run_scenario
from repro.workloads.replay import TraceReplayer


def make_device(scheduler=None, cache=False):
    sim = Simulation()
    drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=cache)
    if scheduler is None:  # note: an *empty* scheduler is falsy (__len__)
        scheduler = NoopScheduler()
    device = BlockDevice(sim, drive, scheduler)
    return sim, device


def test_single_request_completes():
    sim, device = make_device()
    request = IORequest(DiskCommand.read(0, 8))
    done = device.submit(request)
    sim.run(until=done)
    assert request.complete_time == sim.now
    assert request.response_time > 0
    assert request.breakdown is not None
    assert len(device.log) == 1


def test_double_submit_rejected():
    sim, device = make_device()
    request = IORequest(DiskCommand.read(0, 8))
    device.submit(request)
    with pytest.raises(ValueError):
        device.submit(request)


def test_requests_serviced_one_at_a_time():
    sim, device = make_device()
    first = IORequest(DiskCommand.read(0, 8))
    second = IORequest(DiskCommand.read(1_000_000, 8))
    device.submit(first)
    done = device.submit(second)
    sim.run(until=done)
    assert first.complete_time <= second.dispatch_time


def test_noop_is_fifo():
    sim, device = make_device(NoopScheduler())
    requests = [
        IORequest(DiskCommand.read(lbn, 8)) for lbn in (500_000, 100, 900_000)
    ]
    last = None
    for request in requests:
        last = device.submit(request)
    sim.run(until=last)
    dispatch_order = sorted(requests, key=lambda r: r.dispatch_time)
    assert dispatch_order == requests


def test_deadline_sorts_by_lbn():
    sim, device = make_device(DeadlineScheduler())
    far = IORequest(DiskCommand.read(900_000, 8))
    near = IORequest(DiskCommand.read(100, 8))
    device.submit(far)
    done = device.submit(near)
    # Both are queued before the dispatcher runs (submission at t=0, the
    # dispatcher's init event is already queued but selection happens on
    # the first step) — the elevator should pick the near one first.
    sim.run(until=done)
    assert near.dispatch_time <= far.dispatch_time


def test_deadline_expiry_jumps_queue():
    scheduler = DeadlineScheduler()  # reads expire after 500 ms
    old = IORequest(DiskCommand.read(900_000, 8))
    old.seq, old.submit_time = 0, 0.0
    scheduler.add(old, 0.0)
    fresh = IORequest(DiskCommand.read(100, 8))
    fresh.seq, fresh.submit_time = 1, 0.6
    scheduler.add(fresh, 0.6)
    chosen, _ = scheduler.select(0.7)
    assert chosen is old


def test_log_separates_sources():
    sim, device = make_device()
    fg = IORequest(DiskCommand.read(0, 8), source="foreground")
    scrub = IORequest(
        DiskCommand.verify(8, 8), priority=PriorityClass.IDLE, source="scrubber"
    )
    device.submit(fg)
    done = device.submit(scrub)
    sim.run(until=done)
    assert device.log.count("foreground") == 1
    assert device.log.count("scrubber") == 1
    assert device.log.count() == 2
    assert device.log.bytes_completed("foreground") == 8 * 512


def test_log_arrays():
    sim, device = make_device()
    done = None
    for lbn in range(0, 80, 8):
        done = device.submit(IORequest(DiskCommand.read(lbn, 8)))
    sim.run(until=done)
    times = device.log.response_times()
    waits = np.array([r.wait_time for r in device.log.requests()])
    assert len(times) == 10
    assert (times >= waits).all()
    assert device.log.throughput(sim.now) == pytest.approx(
        10 * 8 * 512 / sim.now
    )


def test_throughput_requires_positive_duration():
    _, device = make_device()
    with pytest.raises(ValueError):
        device.log.throughput(0.0)


def test_utilisation_between_zero_and_one():
    sim, device = make_device()
    done = None
    for lbn in range(0, 80, 8):
        done = device.submit(IORequest(DiskCommand.read(lbn, 8)))
    sim.run(until=done)
    util = device.utilisation(sim.now)
    assert 0.0 < util <= 1.0


def test_cfq_idle_request_waits_for_gate_in_stack():
    sim, device = make_device(CFQScheduler(idle_gate=0.010))
    fg = IORequest(DiskCommand.read(0, 8))
    fg_done = device.submit(fg)
    sim.run(until=fg_done)
    fg_complete = sim.now
    scrub = IORequest(
        DiskCommand.verify(1000, 8),
        priority=PriorityClass.IDLE,
        source="scrubber",
    )
    scrub_done = device.submit(scrub)
    sim.run(until=scrub_done)
    assert scrub.dispatch_time >= fg_complete + 0.010


def test_dispatcher_wakes_on_late_submission():
    sim, device = make_device()
    sim.run(until=1.0)  # idle simulation time first
    request = IORequest(DiskCommand.read(0, 8))
    done = device.submit(request)
    sim.run(until=done)
    assert request.dispatch_time >= 1.0
    assert request.complete_time is not None


# -- the records a request is made of and the drive builds ---------------------


class TestTheRecordsAreValues:
    def test_a_command_checks_its_range_when_built(self):
        with pytest.raises(ValueError, match="negative LBN: -1"):
            DiskCommand.read(-1, 8)
        with pytest.raises(ValueError, match="sector count must be positive: 0"):
            DiskCommand(Opcode.VERIFY, 0, 0)

    def test_a_command_refuses_assignment(self):
        command = DiskCommand.write(64, 8)
        with pytest.raises(AttributeError):
            command.lbn = 0
        with pytest.raises(AttributeError):
            command.tag = "x"

    def test_a_command_survives_a_pickle_round_trip(self):
        command = DiskCommand.verify(1000, 128)
        again = pickle.loads(pickle.dumps(command))
        assert again == command and type(again) is DiskCommand
        assert (again.opcode, again.lbn, again.sectors) == (Opcode.VERIFY, 1000, 128)
        assert again.bytes == 128 * 512 and again.end_lbn == 1128

    def test_a_request_has_no_instance_dict(self):
        request = IORequest(DiskCommand.read(0, 8))
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.tag = "x"

    @pytest.mark.parametrize(
        "build, opcode",
        [
            (DiskCommand.read, Opcode.READ),
            (DiskCommand.write, Opcode.WRITE),
            (DiskCommand.verify, Opcode.VERIFY),
            (lambda lbn, sectors: DiskCommand(Opcode.READ, lbn, sectors), Opcode.READ),
        ],
        ids=["read", "write", "verify", "named"],
    )
    def test_every_constructor_checks_the_range_and_builds_the_value(
        self, build, opcode
    ):
        for lbn, sectors, message in (
            (-1, 8, "negative LBN: -1"),
            (-5, 0, "negative LBN: -5"),
            (0, 0, "sector count must be positive: 0"),
            (64, -8, "sector count must be positive: -8"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(lbn, sectors)
        command = build(4096, 16)
        assert type(command) is DiskCommand
        assert command == DiskCommand(opcode, 4096, 16)
        assert command._asdict() == {"opcode": opcode, "lbn": 4096, "sectors": 16}

    def test_the_drive_checks_range_and_time_order(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=False)
        total = drive.total_sectors
        assert total == drive.geometry.total_sectors
        with pytest.raises(ValueError, match="exceeds disk size"):
            drive.service(DiskCommand.read(total - 4, 8), 0.0)
        with pytest.raises(ValueError, match="exceeds disk size"):
            drive.service(DiskCommand.verify(total, 1), 0.0)
        drive.service(DiskCommand.verify(total - 8, 8), 1.0)  # the last sectors
        with pytest.raises(ValueError, match="must be issued in time order"):
            drive.service(DiskCommand.read(0, 8), 0.5)

    def test_the_drive_builds_the_named_records(self):
        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=True)
        media = drive.service(DiskCommand.read(1000, 8), 0.0)
        hit = drive.service(DiskCommand.read(1000, 8), 0.1)
        assert not media.cache_hit and hit.cache_hit
        for breakdown in (media, hit):
            assert type(breakdown) is ServiceBreakdown
            assert len(breakdown) == len(ServiceBreakdown._fields)
            assert ServiceBreakdown(**breakdown._asdict()) == breakdown
        # The buffer-hit path spells out the two defaulted fields.
        assert hit == ServiceBreakdown(*hit[:7])
        assert hit.status is CommandStatus.GOOD and hit.error_lbn is None
        geometry = drive.geometry
        for lbn in (0, 1000, geometry.total_sectors // 2, geometry.total_sectors - 1):
            location = geometry.locate(lbn)
            assert type(location) is Location
            assert len(location) == len(Location._fields)
            assert Location(**location._asdict()) == location


# -- the golden oracle -------------------------------------------------------------
#
# The class below is kept verbatim, docstring included, but for ``post``:
# it submits and drops the event, so a posted request's completion is
# still pushed and popped with no callback, the path ``BlockDevice.post``
# cuts.  What the tests hold it to is narrower than its docstring says:
# ``_signature`` compares outcomes (request log, clock, busy time,
# metrics), not the heap entries it took to reach them; ``_both`` holds
# the event count to the reference's minus the foreground completions.


class _ReferenceDevice:
    """The block device as it was while its dispatcher was a generator
    process, kept verbatim as the oracle for the callback dispatcher:
    the same heap entries in the same order, so the same sequence
    numbers, event counts, clock and request log.  Two edits:
    ``IORequest.stamp_submit`` is gone, so ``submit`` stamps the
    request itself; and the sink is handed the request log
    (``attach_log``) in place of being installed on the drive, whose
    per-command hook is gone, as ``BlockDevice`` does."""

    def __init__(
        self,
        sim: Simulation,
        drive: Drive,
        scheduler: IOSchedulerBase,
        max_log_records: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.drive = drive
        self.scheduler = scheduler
        self.log = RequestLog(max_records=max_log_records)
        self.telemetry = sim.telemetry
        if self.telemetry is not None:
            self.telemetry.attach_log(self.log)
        self.observers: List = []
        self.busy = False
        self.busy_since: Optional[float] = None
        self.total_busy_time = 0.0
        self._wakeup: Event = sim.event()
        self._recheck = ReusableTimeout(sim)
        self._service = ReusableTimeout(sim)
        self.dispatcher = sim.process(self._dispatcher())

    def submit(self, request: IORequest) -> Event:
        if request.submit_time is not None:
            raise ValueError(f"{request!r} was already submitted")
        sim = self.sim
        now = sim._now
        request.seq = next(request_module._sequence)
        request.submit_time = now
        request.completion = sim.event()
        self.scheduler.add(request, now)
        if self.telemetry is not None:
            self.telemetry.request_queued(now, request)
        for observer in self.observers:
            observer("submit", request, now)
        self._kick()
        return request.completion

    def post(self, request: IORequest) -> None:
        self.submit(request)

    def _kick(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _dispatcher(self):
        sim = self.sim
        scheduler = self.scheduler
        drive = self.drive
        log = self.log
        while True:
            now = sim._now
            request, recheck = scheduler.select(now)
            if request is None:
                if recheck is not None and recheck <= now:
                    raise RuntimeError(
                        f"scheduler {scheduler.name} asked to re-check "
                        f"at {recheck} which is not in the future ({now})"
                    )
                if recheck is None:
                    yield self._wakeup
                else:
                    timer = self._recheck
                    wait = recheck - now
                    yield AnyOf(
                        sim,
                        [
                            timer.arm(wait)
                            if timer.processed
                            else sim.timeout(wait),
                            self._wakeup,
                        ],
                    )
                if self._wakeup.triggered:
                    self._wakeup = sim.event()
                continue

            request.dispatch_time = now
            scheduler.on_dispatch(request, now)
            if self.telemetry is not None:
                self.telemetry.request_dispatched(now, request)
            breakdown = drive.service(request.command, now)
            self.busy = True
            self.busy_since = now
            yield self._service.arm(breakdown.finish - now)
            now = sim._now
            self.busy = False
            self.total_busy_time += now - self.busy_since
            self.busy_since = None

            request.complete_time = now
            request.breakdown = breakdown
            if breakdown.error_lbn is not None and drive.faults is not None:
                drive.faults.log.record_media_error(
                    now,
                    breakdown.error_lbn,
                    source=request.source,
                    opcode=request.command.opcode.value,
                )
            scheduler.on_complete(request, now)
            log.add(request)
            if self.telemetry is not None:
                self.telemetry.request_completed(now, request)
            for observer in self.observers:
                observer("complete", request, now)
            request.completion.succeed(request)
            request.completion = None


#: Fuzzed configs the reference runs on: ``make verify-fuzz``'s 200
#: (seed 0), about 2 s of tier-1 over both devices.
FUZZED = 200

ORACLE_SPEC = shrunk_spec(PRESETS["ultrastar"](), cylinders=30)
#: A foreground light enough that Idle-class scrubbing gets the disk
#: between its requests, so the idle gate opens and closes all the time.
ORACLE_TRACE = generate_trace("TPCdisk66", duration=0.6, seed=0, rate_scale=0.1)


def _signature(sim, device, recorder, base_seq):
    """What the oracle compares, outcomes and not heap entries: every
    logged request (order, ``seq``, source, status and the three times
    by ``float.hex``), the clock, the busy accounting and the
    recorder's metrics but its ``engine.events*`` rows.  How many
    events the kernel pushed to get there rides along as ``"events"``,
    which ``_both`` compares on its own."""
    events = recorder.metrics.counter("engine.events").value
    snapshot = recorder.snapshot()
    for table in snapshot.values():
        for name in [n for n in table if n.startswith("engine.events")]:
            del table[name]
    return {
        "requests": [
            (
                r.seq - base_seq, r.source, r.status.name,
                r.submit_time.hex(), r.dispatch_time.hex(),
                r.complete_time.hex(),
            )
            for r in device.log.requests()
        ],
        "now": sim.now.hex(),
        "busy": (device.busy, device.total_busy_time.hex()),
        "metrics": snapshot,
        "events": events,
    }


def _select_spy(scheduler):
    """Record ``(now, recheck, a BE queue non-empty)`` per ``select``."""
    calls = []
    select = scheduler.select

    def spy(now):
        request, recheck = select(now)
        backlog = isinstance(scheduler, CFQScheduler) and any(
            scheduler._be.values()
        )
        calls.append((now, recheck, request is None and backlog))
        return request, recheck

    scheduler.select = spy
    return calls


def _stack_run(device_cls, setup, horizon=0.5, drain=False, **kwargs):
    """One seeded stack run over ``device_cls``: its signature, the
    ``select`` calls and the device."""
    base_seq = next(request_module._sequence)
    recorder = Recorder()
    with mock.patch.object(stack_module, "BlockDevice", device_cls):
        stack = ScrubStack(
            ORACLE_SPEC, setup, idle_gate=0.010, cache_enabled=False,
            telemetry=recorder, **kwargs,
        )
    assert type(stack.device) is device_cls
    calls = _select_spy(stack.device.scheduler)
    stack.replay(ORACLE_TRACE)
    stack.run(horizon, drain=drain)
    return _signature(stack.sim, stack.device, recorder, base_seq), calls, stack


def _both(run):
    """Run ``run`` over both devices: equal outcomes and ``select``
    calls, and one event fewer per completed foreground request (the
    replay cursor posts them; nobody waits on their completion)."""
    (new, new_calls, new_stack), (old, old_calls, _) = (
        run(BlockDevice), run(_ReferenceDevice)
    )
    assert new["requests"], "the scenario completed no request"
    new_events, old_events = new.pop("events"), old.pop("events")
    assert new == old
    assert new_calls == old_calls
    # ``device.log.count("foreground")``, read off the signature.
    foreground = sum(source == "foreground" for _, source, *_ in new["requests"])
    assert foreground > 0
    assert new_events == old_events - foreground
    return new_calls, new_stack


def _rechecks(calls):
    """``(timer fired, timer lost to a submit)`` counts: a ``select``
    that asked to re-check at ``t`` followed by one at ``t`` or before."""
    fired = lost = 0
    for (_, recheck, _), (now, _, _) in zip(calls, calls[1:]):
        if recheck is not None:
            fired += now == recheck
            lost += now < recheck
    return fired, lost


class TestTheDispatcherPushesTheGeneratorsEvents:
    def test_cfq_idle_gate_recheck_fires_and_loses_races(self):
        calls, _ = _both(
            lambda cls: _stack_run(cls, ScrubberSetup("sequential"))
        )
        fired, lost = _rechecks(calls)
        assert fired > 0 and lost > 0

    def test_be_slice_anticipation_with_two_be_sources(self):
        calls, _ = _both(
            lambda cls: _stack_run(
                cls, ScrubberSetup("sequential", priority=PriorityClass.BE)
            )
        )
        assert any(anticipating for _, _, anticipating in calls)

    def test_soft_barriers_of_the_user_level_scrubber(self):
        _, stack = _both(
            lambda cls: _stack_run(
                cls,
                ScrubberSetup("staggered", regions=8, user_level=True, delay=0.002),
            )
        )
        assert stack.scrubber.requests_issued > 0

    def test_waiting_on_noop(self):
        _, stack = _both(
            lambda cls: _stack_run(cls, ScrubberSetup("waiting", threshold=0.005))
        )
        assert isinstance(stack.device.scheduler, NoopScheduler)
        assert stack.scrubber.requests_issued > 0

    def test_deadline(self):
        def run(cls):
            base_seq = next(request_module._sequence)
            recorder = Recorder()
            sim = Simulation(telemetry=recorder)
            device = cls(sim, Drive(ORACLE_SPEC), DeadlineScheduler())
            calls = _select_spy(device.scheduler)
            replay = TraceReplayer(sim, device, ORACLE_TRACE).start()
            scrub = ScrubberSetup("staggered", regions=4).build(sim, device).start()
            sim.run(until=0.5)
            sim.close([device.dispatcher, replay, scrub])
            return _signature(sim, device, recorder, base_seq), calls, None

        _both(run)

    def test_fault_plan_remediation_and_the_drain(self):
        plan = build_model(
            "bursts", inter_burst_mean=0.08, in_burst_time_mean=0.0016
        ).generate(Drive(ORACLE_SPEC).total_sectors, 0.5, 0)
        _, stack = _both(
            lambda cls: _stack_run(
                cls, ScrubberSetup("sequential"), drain=True, fault_plan=plan,
                spare_sectors=4096, remediation=RemediationPolicy(),
            )
        )
        assert stack.scrubber.remediation_stats.sectors_remapped > 0
        assert stack.device.log.errors()

    def test_a_horizon_mid_service_then_close(self):
        _, stack = _both(
            lambda cls: _stack_run(cls, ScrubberSetup("sequential"), horizon=0.3)
        )
        # The horizon cut a request on the drive; close() abandoned it.
        assert stack.device.busy and stack.device.busy_since < 0.3
        assert stack.device.dispatcher.is_alive
        assert stack.sim.peek() == float("inf")


class _StuckScheduler(NoopScheduler):
    """Asks to be re-checked now, which no dispatcher can honour."""

    def select(self, now):
        return None, now


@pytest.mark.parametrize("device_cls", [BlockDevice, _ReferenceDevice])
def test_a_recheck_not_in_the_future_reaches_the_caller(device_cls):
    sim = Simulation()
    device = device_cls(sim, Drive(ORACLE_SPEC), _StuckScheduler())
    with pytest.raises(RuntimeError, match="which is not in the future"):
        sim.run()
    assert not device.dispatcher.is_alive


# -- the waiter rule: only a submitter that waits gets an event ------------------


def _resumptions(device_cls):
    """Four processes on one device, the open-loop one posting: what each
    sees and when (``(label, time)`` in order), and the request log."""
    sim = Simulation()
    device = device_cls(sim, Drive(ORACLE_SPEC, cache_enabled=False), NoopScheduler())
    seen = []

    def note(label):
        seen.append((label, sim.now.hex()))

    def open_loop():
        for i in range(8):
            device.post(IORequest(DiskCommand.read(400 * i, 8)))
            note("posted")
            yield sim.timeout(0.002)

    def waits_after_same_instant_work():
        yield sim.timeout(0.003)
        done = device.submit(IORequest(DiskCommand.read(2000, 8)))
        yield sim.timeout(0)
        note("same instant")
        device.post(IORequest(DiskCommand.write(3200, 16)))
        request = yield done
        note(f"completed {request.command.lbn}")

    def waits_after_it_fired():
        done = device.submit(IORequest(DiskCommand.read(1000, 8)))
        yield sim.timeout(0.05)
        assert done.processed
        request = yield done
        note(f"late {request.command.lbn}")

    def a_callback_and_a_condition():
        yield sim.timeout(0.001)
        done = device.submit(
            IORequest(DiskCommand.verify(3500, 64), source="scrubber")
        )
        done.callbacks.append(lambda event: note("callback"))
        yield done | sim.timeout(1.0)
        note("any of")

    for body in (
        open_loop, waits_after_same_instant_work, waits_after_it_fired,
        a_callback_and_a_condition,
    ):
        sim.process(body())
    sim.run(until=0.1)
    log = [
        (r.source, r.command.lbn, r.complete_time.hex())
        for r in device.log.requests()
    ]
    return seen, log


def test_a_waiter_resumes_when_and_where_it_did():
    seen, log = _resumptions(BlockDevice)
    assert (seen, log) == _resumptions(_ReferenceDevice)
    labels = [label for label, _ in seen]
    assert labels.count("posted") == 8 and len(log) == 12
    for label in ("same instant", "completed 2000", "late 1000",
                  "callback", "any of"):
        assert label in labels
    # The waiters' completions interleave with the posted ones.
    assert 0 < labels.index("completed 2000") < len(labels) - 1


@pytest.mark.parametrize("device_cls", [BlockDevice, _ReferenceDevice])
def test_a_second_post_or_submit_raises_the_same_error(device_cls):
    sim = Simulation()
    device = device_cls(sim, Drive(ORACLE_SPEC), NoopScheduler())
    submitted = IORequest(DiskCommand.read(0, 8))
    done = device.submit(submitted)
    posted = IORequest(DiskCommand.read(800, 8))
    device.post(posted)
    for request in (submitted, posted):
        message = re.escape(f"{request!r} was already submitted")
        for again in (device.submit, device.post):
            with pytest.raises(ValueError, match=f"^{message}$"):
                again(request)
    # The refused submit left the waiter's event where it was.
    assert submitted.completion is done
    assert sim.run(until=done) is submitted
    sim.run()
    assert device.log.count() == 2


def test_a_posted_request_has_no_event_and_keeps_the_invariants():
    drive = Drive(ORACLE_SPEC, cache_enabled=False)
    sink = InvariantSink(total_sectors=drive.total_sectors)
    sim = Simulation(telemetry=sink)
    device = BlockDevice(sim, drive, CFQScheduler(idle_gate=0.010))
    completed = []
    device.observers.append(
        lambda kind, request, now: kind == "complete" and completed.append(
            (request.source, request.completion is None)
        )
    )
    sink.expect_replay(ORACLE_TRACE, 1.0, sim.now)
    replay = TraceReplayer(sim, device, ORACLE_TRACE).start()
    scrub = ScrubberSetup("staggered", regions=4).build(sim, device).start()
    sim.run(until=0.5)
    sim.close([device.dispatcher, replay, scrub])
    sink.finish()
    # Every replayed record was checked against the schedule, and every
    # completed request against its lifecycle.
    assert sink._replayed == replay.count > 0
    assert sink.completed_total == device.log.count()
    # The cursor's requests never carry an event; a scrub request still
    # carries its own when the observers hear it complete.
    assert set(completed) == {("foreground", True), ("scrubber", False)}
    assert all(r.completion is None for r in device.log.requests())


# -- the reference on fuzzed stacks ------------------------------------------------


def _engine_events(outcome):
    """Drop the ``engine.events*`` rows from a recorded outcome's
    metrics; return the ``engine.events`` count."""
    events = None
    for table in outcome["telemetry"]["metrics"].values():
        for name in [n for n in table if n.startswith("engine.events")]:
            value = table.pop(name)
            if name == "engine.events":
                events = value
    assert events is not None
    return events


def test_fuzzed_scenarios_agree_with_the_reference(monkeypatch):
    """``run_scenario`` over fuzzed configs (all three families and
    scrubbers, drain, remediation) with a recorder attached: the
    outcome, the recorded request stream and the metrics are equal over
    both devices, and the sequence numbers and events differ by exactly
    the foreground completions the reference pushes."""
    configs = generate_configs(seed=0, n=FUZZED)
    assert {c["family"] for c in configs} == {
        "synthetic", "trace-replay", "fault-injected"
    }
    assert {c["algorithm"] for c in configs} == {
        "sequential", "staggered", "waiting"
    }
    completed = 0
    for params in configs:
        new = run_scenario(**params, telemetry="recorder")
        with monkeypatch.context() as patch:
            patch.setattr(stack_module, "BlockDevice", _ReferenceDevice)
            old = run_scenario(**params, telemetry="recorder")
        foreground = new["foreground_completed"]
        assert new.pop("event_seq") == old.pop("event_seq") - foreground
        assert _engine_events(new) == _engine_events(old) - foreground
        assert outcome_signature(new) == outcome_signature(old), params
        completed += foreground
    assert completed > 100
