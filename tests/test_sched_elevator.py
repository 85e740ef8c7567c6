"""Tests for the C-LOOK elevator (repro.sched.elevator)."""

import itertools

import pytest

from repro.disk.commands import DiskCommand
from repro.sched import ElevatorQueue, IORequest

_seq = itertools.count()


def req(lbn, sectors=8):
    """A request stamped as ``BlockDevice.submit`` stamps it."""
    request = IORequest(DiskCommand.read(lbn, sectors))
    request.seq = next(_seq)
    request.submit_time = 0.0
    return request


def test_empty_queue():
    queue = ElevatorQueue()
    assert len(queue) == 0
    assert not queue
    assert queue.pop(0) is None
    assert queue.oldest() is None


def test_ascending_service_from_position_zero():
    queue = ElevatorQueue()
    for lbn in (300, 100, 200):
        queue.add(req(lbn))
    order = [queue.pop(0).command.lbn for _ in range(3)]
    assert order == [100, 200, 300]


def test_clook_starts_at_position():
    queue = ElevatorQueue()
    for lbn in (100, 200, 300):
        queue.add(req(lbn))
    assert queue.pop(150).command.lbn == 200


def test_clook_wraps_to_lowest():
    queue = ElevatorQueue()
    for lbn in (100, 200):
        queue.add(req(lbn))
    assert queue.pop(500).command.lbn == 100


def test_remove_specific_request():
    queue = ElevatorQueue()
    a, b = req(100), req(100)
    queue.add(a)
    queue.add(b)
    queue.remove(a)
    assert queue.requests() == [b]
    with pytest.raises(ValueError):
        queue.remove(a)


def test_oldest_by_submission_sequence():
    queue = ElevatorQueue()
    first, second = req(900), req(100)
    queue.add(first)
    queue.add(second)
    assert queue.oldest() is first


def test_requests_snapshot_in_lbn_order():
    queue = ElevatorQueue()
    for lbn in (5, 1, 3):
        queue.add(req(lbn))
    assert [r.command.lbn for r in queue.requests()] == [1, 3, 5]


def test_full_sweep_is_one_pass():
    """A C-LOOK sweep from any position visits each request once."""
    queue = ElevatorQueue()
    lbns = [10, 50, 20, 80, 40]
    for lbn in lbns:
        queue.add(req(lbn))
    position = 45
    served = []
    while queue:
        request = queue.pop(position)
        served.append(request.command.lbn)
        position = request.command.end_lbn
    assert served == [50, 80, 10, 20, 40]
