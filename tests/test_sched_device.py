"""Tests for BlockDevice and RequestLog (repro.sched.device) plus the
noop/deadline schedulers."""

import numpy as np
import pytest

from repro.disk import DiskCommand, Drive, hitachi_ultrastar_15k450
from repro.sched import (
    BlockDevice,
    CFQScheduler,
    DeadlineScheduler,
    IORequest,
    NoopScheduler,
    PriorityClass,
)
from repro.sim import Simulation


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
    old.stamp_submit(0.0)
    scheduler.add(old, 0.0)
    fresh = IORequest(DiskCommand.read(100, 8))
    fresh.stamp_submit(0.6)
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
