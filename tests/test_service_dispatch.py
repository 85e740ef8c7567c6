"""Event-driven dispatch and its behaviour under a failing disk.

The dispatcher blocks on the queue's wake-up event with no timeout, so
these tests pin what a poll loop used to paper over: no claim attempts
while idle, no lost wake-up under racing submitters, every wake source
sufficient on its own, and a ``stop()`` that does not wait out a tick.
The one timed wait left on the dispatch path is the claim spacing, kept
on the stop event: it delays only a claim that comes due sooner than the
spacing after an earlier one, and ``stop()`` cuts it short.
The fault half injects ``ENOSPC`` into ``JobQueue._persist``: a failed
transition must leave memory, disk and a reopened queue agreeing, the
dispatcher thread must outlive it, and ``/healthz`` must say so when it
does not.  A failed publish or write in ``atomic_write`` leaves no temp
file and every durable-state caller's target as it was.

No wall-clock thresholds: every wait below is a deadline that fails the
test, never a delay the behaviour under test depends on.
"""

import errno
import json
import os
import shutil
import sys
import threading
import time

import pytest

from repro.service import (
    TERMINAL_STATES,
    CampaignService,
    JobQueue,
    ServiceClient,
)
from repro.service.scheduler import CampaignScheduler
from tests.test_replace_once import CALLERS

pytestmark = pytest.mark.service

DEADLINE = 60.0


def _spec(seed, groups=8, shards=1):
    return {
        "fleet": {
            "groups": groups,
            "disks_per_group": 4,
            "mttr_hours": 36.0,
            "spare_delay_hours": 6.0,
            "classes": [{"mttf_hours": 2.5e4, "lse_burst_rate_per_hour": 3e-4}],
        },
        "policies": [{"name": "weekly", "latent_window_hours": 84.0}],
        "mission_years": 6.0,
        "seed": seed,
        "shards": shards,
    }


def _until(condition, what):
    """Spin until ``condition()`` holds; fail the test at the deadline."""
    deadline = time.monotonic() + DEADLINE
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def _finals(queue, ids):
    """Wait for ``ids`` to turn terminal; reads only, wakes nothing."""
    _until(
        lambda: all(queue.get(i).state in TERMINAL_STATES for i in ids),
        f"jobs {[i[:8] for i in ids]} to finish",
    )
    return [queue.get(i) for i in ids]


class CountingQueue(JobQueue):
    """Counts ``claim_next`` calls (the dispatcher is the only caller)."""

    claims = 0

    def claim_next(self, client_quota=0):
        self.claims += 1
        return super().claim_next(client_quota)


class FlakyQueue(JobQueue):
    """``_persist`` raises ``ENOSPC`` while ``failures`` is positive."""

    failures = 0

    def _persist(self, job):
        if self.failures > 0:
            self.failures -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        super()._persist(job)


class RecordingEvent(threading.Event):
    """Remembers the ``timeout`` of every ``wait``."""

    def __init__(self):
        super().__init__()
        self.timeouts = []

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return super().wait(timeout)


@pytest.fixture
def make_scheduler(tmp_path):
    """``make_scheduler(queue, **kwargs)``; every scheduler is stopped."""
    made = []

    def make(queue, **kwargs):
        scheduler = CampaignScheduler(queue, tmp_path / "campaigns", **kwargs)
        made.append(scheduler)
        return scheduler

    yield make
    for scheduler in made:
        scheduler.stop()


def _idle(queue):
    """Wait for a started dispatcher to have gone through its first round."""
    _until(lambda: queue.claims >= 1, "the start-up claim")
    return queue.claims


# -- the tentpole: no tick -----------------------------------------------------


def test_idle_dispatcher_does_not_poll(tmp_path, make_scheduler):
    queue = CountingQueue(tmp_path)
    make_scheduler(queue, max_jobs=2).start()
    idle = _idle(queue)
    time.sleep(0.3)  # six ticks of the old poll loop
    assert queue.claims == idle
    jobs = 5
    for seed in range(jobs):
        job, _ = queue.submit(_spec(seed), client="a")
        assert _finals(queue, [job.id])[0].state == "done"
    # Per job: the claim that takes it, the one that finds the queue
    # empty, and the one after its slot freed.
    assert jobs <= queue.claims - idle <= 3 * jobs


def test_no_lost_wakeup_under_racing_submitters(tmp_path, make_scheduler):
    """4 threads x 50 jobs against 2 slots and a quota of 1: all run."""
    queue = JobQueue(tmp_path)
    make_scheduler(queue, max_jobs=2, client_quota=1).start()
    ids = []

    def submitter(client):
        for i in range(50):
            job, created = queue.submit(_spec(client * 1000 + i), client=f"c{client}")
            assert created
            ids.append(job.id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter, args=(c,)) for c in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE)
            assert not thread.is_alive()
        finals = _finals(queue, ids)
    finally:
        sys.setswitchinterval(interval)
    assert len(ids) == 200
    assert all(job.state == "done" and job.attempts == 1 for job in finals)
    assert sorted(job.started_seq for job in finals) == list(range(200))
    assert sorted(job.finished_seq for job in finals) == list(range(200))


def test_resubmitting_a_cancelled_job_wakes_the_dispatcher(tmp_path, make_scheduler):
    queue = CountingQueue(tmp_path)
    job, _ = queue.submit(_spec(1), client="a")
    assert queue.request_cancel(job.id).state == "cancelled"
    make_scheduler(queue).start()
    _idle(queue)
    back, created = queue.submit(_spec(1), client="a")
    assert not created and back.state == "queued"
    (final,) = _finals(queue, [job.id])
    assert final.state == "done" and final.attempts == 1


def test_quota_release_wakes_the_dispatcher(tmp_path, make_scheduler):
    """The second job of a client at quota starts when the first ends,
    with nothing else happening to the queue."""
    queue = JobQueue(tmp_path)
    make_scheduler(queue, max_jobs=2, client_quota=1).start()
    first, _ = queue.submit(_spec(1, groups=480, shards=4), client="greedy")
    second, _ = queue.submit(_spec(2), client="greedy")
    first, second = _finals(queue, [first.id, second.id])
    assert first.state == second.state == "done"
    # Had both run at once, the tiny second job would have ended first.
    assert first.finished_seq < second.finished_seq
    assert first.finished <= second.started


def test_jobs_queued_on_disk_are_claimed_at_start(tmp_path, make_scheduler):
    before = JobQueue(tmp_path)
    ids = [before.submit(_spec(seed), client="a")[0].id for seed in range(3)]
    queue = JobQueue(tmp_path)  # a new process: its event was never raised
    assert not queue.wakeup.is_set()
    make_scheduler(queue).start()
    assert all(job.state == "done" for job in _finals(queue, ids))


def test_release_wakes_the_dispatcher(tmp_path, make_scheduler):
    queue = CountingQueue(tmp_path)
    job, _ = queue.submit(_spec(1), client="a")
    assert JobQueue.claim_next(queue).state == "running"  # held by nobody
    make_scheduler(queue).start()
    _idle(queue)
    assert queue.release(job.id).state == "queued"
    (final,) = _finals(queue, [job.id])
    assert final.state == "done" and final.attempts == 2


def test_drained_job_resumes_on_a_fresh_start(tmp_path, make_scheduler):
    """``stop()`` releases the running job; the next ``start()`` -- with
    the event in whatever state the drain left it -- picks it up."""
    queue = JobQueue(tmp_path)
    scheduler = make_scheduler(queue)
    scheduler.start()
    job, _ = queue.submit(_spec(1, groups=12_000, shards=16), client="a")
    _until(lambda: queue.get(job.id).state == "running", "the claim")
    scheduler.stop()
    assert queue.get(job.id).state == "queued"
    scheduler.start()
    (final,) = _finals(queue, [job.id])
    assert final.state == "done" and final.attempts == 2
    assert final.result["completeness"] == 1.0


def test_stop_joins_at_once_and_the_wakeup_is_never_waited_on_with_a_timeout(tmp_path):
    queue = JobQueue(tmp_path)
    queue.wakeup = RecordingEvent()
    scheduler = CampaignScheduler(queue, tmp_path / "campaigns", max_jobs=2)
    scheduler.start()
    ids = [queue.submit(_spec(seed), client="a")[0].id for seed in range(4)]
    assert all(job.state == "done" for job in _finals(queue, ids))
    stopper = threading.Thread(target=scheduler.stop)
    stopper.start()
    stopper.join(DEADLINE)
    assert not stopper.is_alive() and not scheduler.alive
    assert not hasattr(scheduler, "poll")
    assert queue.wakeup.timeouts and set(queue.wakeup.timeouts) == {None}


def test_claims_are_spaced_and_the_first_is_not_delayed(tmp_path, make_scheduler):
    """One slot: the first claim enters no timed wait, each later one
    starts at least ``claim_spacing`` after the one before."""
    queue = JobQueue(tmp_path)
    scheduler = make_scheduler(queue)
    scheduler.claim_spacing = 0.25
    scheduler._stop = RecordingEvent()
    scheduler.start()
    first, _ = queue.submit(_spec(1), client="a")
    _until(lambda: queue.get(first.id).state != "queued", "the first claim")
    assert scheduler._stop.timeouts == []
    rest = [queue.submit(_spec(seed), client="a")[0].id for seed in (2, 3)]
    finals = _finals(queue, [first.id] + rest)
    assert all(job.state == "done" for job in finals)
    starts = sorted(job.started for job in finals)
    # ``started`` is time.time(), the spacing is monotonic: allow 20%.
    assert all(b - a >= 0.8 * 0.25 for a, b in zip(starts, starts[1:]))
    assert all(0 < t <= 0.25 for t in scheduler._stop.timeouts)


def test_stop_cuts_the_claim_spacing_short(tmp_path):
    queue = JobQueue(tmp_path)
    scheduler = CampaignScheduler(queue, tmp_path / "campaigns")
    scheduler.claim_spacing = 3600.0
    scheduler.start()
    first, _ = queue.submit(_spec(1), client="a")
    second, _ = queue.submit(_spec(2), client="a")
    assert _finals(queue, [first.id])[0].state == "done"
    stopper = threading.Thread(target=scheduler.stop)
    stopper.start()
    stopper.join(DEADLINE)
    assert not stopper.is_alive() and not scheduler.alive
    held = queue.get(second.id)
    assert held.state == "queued" and held.attempts == 0


# -- a failing disk: transitions are all-or-nothing -----------------------------


def _on_disk(queue, job_id):
    with open(queue._path(job_id), encoding="utf-8") as handle:
        return json.load(handle)


def _queued(queue, job_id):
    """A fresh submission is already ``queued``."""


def _running(queue, job_id):
    assert queue.claim_next().id == job_id


def _failed(queue, job_id):
    _running(queue, job_id)
    queue.finish(job_id, "failed", error="boom")


# name -> (bring the job to the state the transition leaves from,
#          the transition, fields the retried transition must show)
TRANSITIONS = {
    "claim": (
        _queued,
        lambda q, j: q.claim_next(),
        {"state": "running", "attempts": 1, "started_seq": 1},
    ),
    "finish": (
        _running,
        lambda q, j: q.finish(j, "done", result={"ok": 1}),
        {"state": "done", "finished_seq": 1, "result": {"ok": 1}},
    ),
    "release": (
        _running,
        lambda q, j: q.release(j),
        {"state": "queued", "attempts": 1},
    ),
    "cancel-queued": (
        _queued,
        lambda q, j: q.request_cancel(j),
        {"state": "cancelled", "cancel_requested": True, "finished_seq": 1},
    ),
    "cancel-running": (
        _running,
        lambda q, j: q.request_cancel(j),
        {"state": "running", "cancel_requested": True},
    ),
    "requeue": (
        _failed,
        lambda q, j: q.submit(_spec(2), client="a")[0],
        {"state": "queued", "error": None, "finished_seq": -1, "finished": 0.0},
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_failed_persist_leaves_memory_disk_and_reopen_agreeing(tmp_path, name):
    prepare, transition, expected = TRANSITIONS[name]
    queue = FlakyQueue(tmp_path / "data")
    # One job all the way through, so every counter the transition may
    # draw from stands at 1, not at its initial 0.
    other, _ = queue.submit(_spec(1), client="a")
    queue.finish(queue.claim_next().id, "done")
    job, _ = queue.submit(_spec(2), client="a")
    prepare(queue, job.id)

    before = queue.get(job.id).to_dict()
    queue.failures = 1
    with pytest.raises(OSError, match="No space left"):
        transition(queue, job.id)
    assert queue.failures == 0

    assert queue.get(job.id).to_dict() == before
    assert _on_disk(queue, job.id) == before
    assert queue.get(other.id).state == "done"
    copy = tmp_path / "copy"
    shutil.copytree(queue.root, copy)
    reopened = JobQueue(copy).get(job.id).to_dict()
    if before["state"] == "running":
        # Opening heals a running orphan; nothing else may differ.
        assert reopened["state"] == "queued"
        reopened.update(state="running", updated=before["updated"])
    assert reopened == before

    after = transition(queue, job.id).to_dict()
    assert {field: after[field] for field in expected} == expected
    assert _on_disk(queue, job.id) == queue.get(job.id).to_dict() == after


def test_failed_persist_of_a_new_submission_leaves_no_job(tmp_path):
    queue = FlakyQueue(tmp_path)
    first, _ = queue.submit(_spec(1), client="a")
    queue.failures = 1
    with pytest.raises(OSError):
        queue.submit(_spec(2), client="a")
    assert [job.id for job in queue.jobs()] == [first.id]
    assert [job.id for job in JobQueue(tmp_path).jobs()] == [first.id]
    job, created = queue.submit(_spec(2), client="a")
    assert created and job.seq == first.seq + 1


class _FullDisk:
    """A file handle whose every write fails with ``ENOSPC``."""

    def __init__(self, handle, fired):
        self._handle = handle
        self._fired = fired

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        self._fired.append("write")
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_the_publish(patch, fired):
    def no_space(src, dst):
        fired.append("publish")
        raise OSError(errno.ENOSPC, "No space left on device")

    patch.setattr("repro.obs.export.os.replace", no_space)
    patch.setattr("repro.obs.export.os.link", no_space)


def _fail_the_write(patch, fired):
    real_fdopen = os.fdopen
    patch.setattr(
        "repro.obs.export.os.fdopen",
        lambda *args, **kwargs: _FullDisk(real_fdopen(*args, **kwargs), fired),
    )


def _contents(path):
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("fault", [_fail_the_publish, _fail_the_write],
                         ids=["publish", "write"])
@pytest.mark.parametrize("factory", CALLERS.values(), ids=CALLERS)
def test_failed_replace_removes_the_temp_file(
    tmp_path, monkeypatch, factory, fault
):
    """A failed publish, or a write failing inside ``atomic_write``'s
    block, leaves every caller's target as it was and no temp file;
    the retried write lands."""
    target, write = factory(tmp_path)
    before = _contents(target)
    fired = []
    with monkeypatch.context() as patch:
        fault(patch, fired)
        with pytest.raises(OSError):
            write()
    assert fired
    assert _contents(target) == before
    assert [p.name for p in tmp_path.rglob("*") if ".tmp" in p.name] == []
    write()
    assert target.exists()


# -- a failing disk: the dispatcher outlives it, /healthz tells the truth -------


def test_dispatcher_survives_a_failed_claim(tmp_path, make_scheduler):
    queue = FlakyQueue(tmp_path)
    first, _ = queue.submit(_spec(1), client="a")
    queue.failures = 1
    scheduler = make_scheduler(queue)
    scheduler.start()
    _until(lambda: scheduler.last_error is not None, "the failed claim")
    assert scheduler.alive
    assert scheduler.last_error.startswith("OSError: ")
    assert "No space left" in scheduler.last_error
    assert queue.get(first.id).state == "queued"  # and nobody retried
    # The fault cleared; any wake-up -- here an unrelated submit -- is
    # enough for the job the failed round left behind.
    second, _ = queue.submit(_spec(2), client="a")
    first, second = _finals(queue, [first.id, second.id])
    assert first.state == second.state == "done"
    assert (first.started_seq, first.attempts) == (0, 1)
    assert second.started_seq == 1


def test_healthz_reports_the_last_dispatch_error(tmp_path):
    service = CampaignService(tmp_path, port=0)
    service.queue.__class__ = FlakyQueue
    job, _ = service.queue.submit(_spec(1), client="a")
    service.queue.failures = 1
    with service:
        api = ServiceClient(service.url)
        _until(lambda: service.scheduler.last_error is not None, "the failed claim")
        status, payload = api.health()
        assert status == 200 and payload["ok"] is True
        assert "No space left" in payload["dispatch_error"]
        assert payload["counts"]["queued"] == 1
        status, _ = api.submit(_spec(2))
        assert status == 201
        assert api.wait(job.id, timeout=DEADLINE)["state"] == "done"


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_healthz_is_503_when_the_dispatcher_is_gone(tmp_path):
    class DyingQueue(JobQueue):
        def claim_next(self, client_quota=0):
            raise SystemExit  # not an Exception: ends the thread quietly

    service = CampaignService(tmp_path, port=0)
    service.queue.__class__ = DyingQueue
    with service:
        api = ServiceClient(service.url)
        _until(lambda: not service.scheduler.alive, "the dispatcher to exit")
        status, payload = api.health()
        assert status == 503
        assert payload["ok"] is False
        assert payload["error"] == "dispatcher thread is not running"
        assert set(payload["counts"]) >= {"queued", "running"}
        # Submissions are still accepted -- which is why /healthz must not lie.
        assert api.submit(_spec(1))[0] == 201
