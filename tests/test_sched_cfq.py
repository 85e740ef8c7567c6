"""Tests for the CFQ scheduler model (repro.sched.cfq)."""

import itertools
import random

import pytest

from repro.disk.commands import DiskCommand
from repro.sched import CFQScheduler, IORequest, PriorityClass

_seq = itertools.count()


def req(lbn=0, priority=PriorityClass.BE, source="fg", barrier=False, now=0.0):
    """A request stamped as ``BlockDevice.submit`` stamps it."""
    request = IORequest(
        DiskCommand.read(lbn, 8),
        priority=priority,
        source=source,
        soft_barrier=barrier,
    )
    request.seq = next(_seq)
    request.submit_time = now
    return request


def make(idle_gate=0.010):
    return CFQScheduler(idle_gate=idle_gate)


def test_empty_scheduler_sleeps():
    cfq = make()
    assert cfq.select(0.0) == (None, None)
    assert len(cfq) == 0


def test_rt_beats_be():
    cfq = make()
    be = req(priority=PriorityClass.BE)
    rt = req(priority=PriorityClass.RT)
    cfq.add(be, 0.0)
    cfq.add(rt, 0.0)
    chosen, _ = cfq.select(0.0)
    assert chosen is rt


def test_be_beats_idle():
    cfq = make()
    idle = req(priority=PriorityClass.IDLE, source="scrub")
    be = req(priority=PriorityClass.BE)
    cfq.add(idle, 0.0)
    cfq.add(be, 0.0)
    chosen, _ = cfq.select(0.0)
    assert chosen is be


def test_idle_class_gated_until_quiescence():
    cfq = make(idle_gate=0.010)
    fg = req(priority=PriorityClass.BE)
    cfq.add(fg, 0.0)
    chosen, _ = cfq.select(0.0)
    cfq.on_dispatch(chosen, 0.0)
    cfq.on_complete(chosen, 0.005)

    scrub = req(priority=PriorityClass.IDLE, source="scrub", now=0.006)
    cfq.add(scrub, 0.006)
    # Foreground completed at 5 ms; the gate opens at 15 ms.
    chosen, recheck = cfq.select(0.006)
    assert chosen is None
    assert recheck == pytest.approx(0.015)
    chosen, _ = cfq.select(0.015)
    assert chosen is scrub


def test_idle_gate_open_when_no_foreground_history():
    cfq = make(idle_gate=0.010)
    scrub = req(priority=PriorityClass.IDLE, source="scrub")
    cfq.add(scrub, 0.0)
    chosen, _ = cfq.select(0.0)
    assert chosen is scrub


def test_back_to_back_idle_requests_flow_once_gate_open():
    cfq = make(idle_gate=0.010)
    s1 = req(priority=PriorityClass.IDLE, source="scrub")
    s2 = req(lbn=8, priority=PriorityClass.IDLE, source="scrub")
    cfq.add(s1, 0.0)
    cfq.add(s2, 0.0)
    first, _ = cfq.select(0.0)
    cfq.on_dispatch(first, 0.0)
    cfq.on_complete(first, 0.004)
    second, _ = cfq.select(0.004)
    assert second is s2  # completing an idle request must not re-arm the gate


def test_be_slice_owner_keeps_disk():
    cfq = make()
    a1 = req(lbn=0, source="a")
    b1 = req(lbn=1000, source="b")
    cfq.add(a1, 0.0)
    cfq.add(b1, 0.0)
    first, _ = cfq.select(0.0)
    cfq.on_dispatch(first, 0.0)
    cfq.on_complete(first, 0.004)
    # Owner "a" submits again within its slice: it goes first even though
    # "b" has been waiting longer.
    a2 = req(lbn=8, source="a", now=0.004)
    cfq.add(a2, 0.004)
    second, _ = cfq.select(0.004)
    assert second is a2


def test_be_slice_anticipation_waits_for_owner():
    cfq = make()
    a1 = req(lbn=0, source="a")
    cfq.add(a1, 0.0)
    first, _ = cfq.select(0.0)
    cfq.on_dispatch(first, 0.0)
    cfq.on_complete(first, 0.004)
    b1 = req(lbn=1000, source="b", now=0.004)
    cfq.add(b1, 0.004)
    # Owner queue is empty but anticipated until 4 ms + 8 ms = 12 ms.
    chosen, recheck = cfq.select(0.0041)
    assert chosen is None
    assert recheck == pytest.approx(0.012)
    chosen, _ = cfq.select(0.012)
    assert chosen is b1


def test_be_slice_expires_and_rotates():
    cfq = make()
    a1 = req(lbn=0, source="a")
    a2 = req(lbn=8, source="a")
    b1 = req(lbn=1000, source="b")
    cfq.add(a1, 0.0)
    cfq.add(a2, 0.0)
    cfq.add(b1, 0.0)
    first, _ = cfq.select(0.0)
    assert first.source == "a"
    # Within the 100 ms slice the owner's backlog keeps the disk...
    assert cfq.select(0.099)[0] is a2
    cfq.add(req(lbn=16, source="a", now=0.099), 0.099)
    # ...past its end, the other source takes over despite "a" backlog.
    second, _ = cfq.select(0.1)
    assert second is b1


def test_soft_barrier_ignores_priority():
    cfq = make()
    barrier = req(priority=PriorityClass.IDLE, source="scrub", barrier=True)
    cfq.add(barrier, 0.0)
    fg = req(priority=PriorityClass.RT, now=1.0)
    cfq.add(fg, 1.0)
    # The barrier was submitted first: even an RT request cannot overtake.
    chosen, _ = cfq.select(1.0)
    assert chosen is barrier
    chosen, _ = cfq.select(1.0)
    assert chosen is fg


def test_requests_before_barrier_drain_first():
    cfq = make()
    fg = req(priority=PriorityClass.BE)
    cfq.add(fg, 0.0)
    barrier = req(source="scrub", barrier=True, now=0.001)
    cfq.add(barrier, 0.001)
    first, _ = cfq.select(0.002)
    assert first is fg
    second, _ = cfq.select(0.002)
    assert second is barrier


def test_barriers_fifo_among_themselves():
    cfq = make()
    b1 = req(lbn=500, barrier=True)
    b2 = req(lbn=100, barrier=True, now=0.001)
    cfq.add(b1, 0.0)
    cfq.add(b2, 0.001)
    assert cfq.select(0.002)[0] is b1
    assert cfq.select(0.002)[0] is b2


def test_barrier_resets_idle_gate():
    cfq = make(idle_gate=0.010)
    barrier = req(barrier=True)
    cfq.add(barrier, 0.0)
    dispatched, _ = cfq.select(0.0)
    cfq.on_dispatch(dispatched, 0.0)
    cfq.on_complete(dispatched, 0.004)
    scrub = req(priority=PriorityClass.IDLE, source="scrub", now=0.005)
    cfq.add(scrub, 0.005)
    chosen, recheck = cfq.select(0.005)
    assert chosen is None
    assert recheck == pytest.approx(0.014)


def test_len_counts_all_queues():
    cfq = make()
    cfq.add(req(priority=PriorityClass.RT), 0.0)
    cfq.add(req(priority=PriorityClass.BE), 0.0)
    cfq.add(req(priority=PriorityClass.IDLE), 0.0)
    cfq.add(req(barrier=True), 0.0)
    assert len(cfq) == 4


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CFQScheduler(idle_gate=-1)


# -- the BE backlog counter ------------------------------------------------------


def _check_counts(cfq, queued):
    assert cfq._be_count == sum(len(q) for q in cfq._be.values())
    assert len(cfq) == len(queued)


@pytest.mark.parametrize("seed", range(12))
def test_the_be_count_is_the_sum_of_the_be_queues(seed):
    """Seeded random hook sequences over every class, three BE sources
    and soft barriers: after every hook the counter ``select`` tests is
    the scan it replaced, and ``len()`` counts what is queued."""
    rng = random.Random(seed)
    cfq = make(idle_gate=rng.choice([0.0, 0.002, 0.010]))
    classes = [PriorityClass.RT, PriorityClass.BE, PriorityClass.IDLE]
    queued = set()
    in_flight = None
    now = 0.0
    be_behind_barrier = 0
    for _ in range(400):
        now += rng.choice([0.0, 0.0005, 0.003, 0.02])
        action = rng.random()
        if action < 0.45:
            request = req(
                lbn=rng.randrange(0, 1 << 20, 8),
                priority=rng.choices(classes, weights=[1, 4, 2])[0],
                source=rng.choice(["a", "b", "c"]),
                barrier=rng.random() < 0.15,
                now=now,
            )
            cfq.add(request, now)
            queued.add(request)
        elif in_flight is None:
            barriers = bool(cfq._barriers)
            chosen, _ = cfq.select(now)
            if chosen is not None:
                assert chosen in queued
                queued.remove(chosen)
                if (
                    barriers
                    and not chosen.soft_barrier
                    and chosen.priority is PriorityClass.BE
                ):
                    be_behind_barrier += 1
                _check_counts(cfq, queued)
                cfq.on_dispatch(chosen, now)
                in_flight = chosen
        else:
            cfq.on_complete(in_flight, now)
            in_flight = None
        _check_counts(cfq, queued)
    # The barrier path took BE requests out of their queues too.
    assert be_behind_barrier > 0
