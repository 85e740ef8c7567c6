"""Job-queue durability: unit transitions, crash recovery, SIGKILL drill.

Two layers.  The unit half drives :class:`JobQueue` directly — dedup,
fair-share claiming, quotas, cancellation, and the recovery rule that
an opened queue never contains a ``running`` orphan.  The integration
half is the paper-grade drill: a real ``repro serve`` subprocess is
SIGKILLed mid-campaign, a new service opens the same data directory,
and the job must resume from its shard checkpoints and finish with
metrics bit-identical to an uninterrupted run — with no shard executed
twice.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.fleet import CampaignRunner, spec_from_dict
from repro.service import CampaignService, JobQueue, QueueError, ServiceClient

pytestmark = pytest.mark.service


def _spec(groups=48, shards=4, seed=13):
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


# -- unit: transitions, dedup, fairness --------------------------------------


def test_submit_validates_and_dedups(tmp_path):
    queue = JobQueue(tmp_path)
    job, created = queue.submit(_spec(), client="a")
    assert created and job.state == "queued" and job.seq == 0
    again, created2 = queue.submit(_spec(), client="b")
    assert not created2 and again.id == job.id
    assert again.client == "a"  # first submitter owns the job
    with pytest.raises(QueueError):
        queue.submit({"fleet": {}}, client="a")
    with pytest.raises(QueueError):
        queue.submit("not a dict", client="a")


def test_claim_finish_release_cycle(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    claimed = queue.claim_next()
    assert claimed.id == job.id and claimed.state == "running"
    assert claimed.attempts == 1 and claimed.started_seq == 0
    assert queue.claim_next() is None
    released = queue.release(job.id)
    assert released.state == "queued" and released.attempts == 1
    reclaimed = queue.claim_next()
    assert reclaimed.attempts == 2
    done = queue.finish(job.id, "done", result={"ok": 1})
    assert done.finished_seq == 0
    with pytest.raises(QueueError):
        queue.finish(job.id, "done")
    with pytest.raises(QueueError):
        queue.finish(job.id, "queued")
    with pytest.raises(KeyError):
        queue.get("missing")


def test_failed_and_cancelled_resubmit_requeues(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    queue.claim_next()
    queue.finish(job.id, "failed", error="boom")
    back, created = queue.submit(_spec(), client="a")
    assert not created and back.state == "queued" and back.error is None
    queue.claim_next()
    queue.request_cancel(job.id)
    queue.finish(job.id, "cancelled", error="stopped")
    back2, _ = queue.submit(_spec(), client="a")
    assert back2.state == "queued" and not back2.cancel_requested


def test_cancel_semantics(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(seed=1), client="a")
    cancelled = queue.request_cancel(job.id)
    assert cancelled.state == "cancelled"  # queued cancels immediately
    running, _ = queue.submit(_spec(seed=2), client="a")
    queue.claim_next()
    flagged = queue.request_cancel(running.id)
    assert flagged.state == "running" and flagged.cancel_requested


def test_fair_share_and_quota(tmp_path):
    queue = JobQueue(tmp_path)
    a1, _ = queue.submit(_spec(seed=1), client="alice")
    a2, _ = queue.submit(_spec(seed=2), client="alice")
    b1, _ = queue.submit(_spec(seed=3), client="bob")
    first = queue.claim_next()
    assert first.id == a1.id  # all clients idle: submission order
    second = queue.claim_next()
    assert second.id == b1.id  # alice is running; bob wins fair-share
    # quota=1: both clients at quota, nothing claimable
    assert queue.claim_next(client_quota=1) is None
    third = queue.claim_next()
    assert third.id == a2.id


def test_persistence_across_reopen(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    queue.claim_next()
    reopened = JobQueue(tmp_path)
    healed = reopened.get(job.id)
    assert healed.state == "queued"  # running orphan re-queued
    assert healed.attempts == 1
    assert reopened.recovered == (job.id,)
    assert reopened.counts()["running"] == 0


def test_reopen_cancel_requested_running_becomes_cancelled(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    queue.claim_next()
    queue.request_cancel(job.id)
    reopened = JobQueue(tmp_path)
    assert reopened.get(job.id).state == "cancelled"


def test_seq_counters_survive_reopen(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(seed=1), client="a")
    queue.claim_next()
    queue.finish(job.id, "done")
    reopened = JobQueue(tmp_path)
    job2, _ = reopened.submit(_spec(seed=2), client="a")
    assert job2.seq == job.seq + 1
    claimed = reopened.claim_next()
    assert claimed.started_seq == 1
    assert reopened.finish(job2.id, "done").finished_seq == 1


def test_records_without_wall_clock_stamps_still_load(tmp_path):
    """Records written before ``started``/``finished`` existed."""
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    with open(queue._path(job.id)) as handle:
        record = json.load(handle)
    del record["started"], record["finished"]
    with open(queue._path(job.id), "w") as handle:
        json.dump(record, handle)
    old = JobQueue(tmp_path).get(job.id)
    assert (old.started, old.finished) == (0.0, 0.0)


def test_wall_clock_stamps_follow_the_transitions(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    assert (job.started, job.finished) == (0.0, 0.0)
    first = queue.claim_next()
    assert job.created <= first.started and first.finished == 0.0
    queue.release(job.id)
    second = queue.claim_next()
    assert second.started >= first.started  # the latest claim
    failed = queue.finish(job.id, "failed", error="boom")
    assert failed.started == second.started <= failed.finished
    back, _ = queue.submit(_spec(), client="a")
    assert (back.started, back.finished) == (0.0, 0.0)  # cleared on requeue
    cancelled = queue.request_cancel(job.id)
    assert cancelled.started == 0.0 < cancelled.finished


def test_corrupt_record_is_rejected(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(_spec(), client="a")
    with open(queue._path(job.id), "w") as handle:
        handle.write("{not json")
    with pytest.raises(QueueError):
        JobQueue(tmp_path)


# -- integration: SIGKILL the service mid-campaign ---------------------------


def _start_serve(data_dir, extra=()):
    """Launch ``repro serve`` on an ephemeral port; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--data-dir", str(data_dir), "--port", "0",
         "--status-interval", "0", *extra],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            break
        if proc.poll() is not None:
            raise AssertionError(f"serve died: {proc.stdout.read()}")
    assert url, "serve never reported its port"
    return proc, url


def _landed_checkpoints(checkpoints) -> int:
    """Checkpoint entries renamed into place, as ``tools/serve_smoke.py``
    counts them: ``ResultCache.put`` makes ``<key[:2]>/`` and a ``.tmp``
    file before the ``.pkl`` lands, so directory entries overcount."""
    return sum(1 for _ in checkpoints.glob("*/*.pkl"))


def test_sigkill_service_resumes_bit_identical(tmp_path):
    """Kill -9 mid-campaign; restart; resume; metrics bit-identical."""
    data_dir = tmp_path / "data"
    spec = _spec(groups=12_000, shards=16, seed=21)
    proc, url = _start_serve(data_dir)
    try:
        client = ServiceClient(url, client="drill")
        status, payload = client.submit(spec)
        assert status == 201
        job_id = payload["job"]["id"]
        checkpoints = data_dir / "campaigns" / job_id / "journal" / "checkpoints"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _landed_checkpoints(checkpoints) >= 2:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("no checkpoints appeared before the kill")
    finally:
        proc.kill()
        proc.wait()

    # The dead service left the job 'running' on disk; a restarted
    # service must heal it to 'queued' and run it to completion from
    # the journal, never re-executing a checkpointed shard.
    record = json.loads(
        (data_dir / "jobs" / f"{job_id}.json").read_text()
    )
    assert record["state"] == "running"
    with CampaignService(data_dir, port=0, status_interval=0.0) as svc:
        assert svc.queue.recovered == (job_id,)
        final = ServiceClient(svc.url).wait(job_id, timeout=120)
    assert final["state"] == "done"
    assert final["attempts"] == 2  # one claim per service generation
    assert final["result"]["shards_resumed"] >= 2

    direct = CampaignRunner(spec_from_dict(spec)).run().metrics_dict()
    assert final["result"]["metrics"] == json.loads(json.dumps(direct))

    # No duplicated shard work: each shard either resumed from its
    # checkpoint or completed exactly once across both generations.
    # (The checkpoint is written before the monitor event, so the kill
    # can race at most one shard's shard_completed append — that shard
    # then shows up as resumed only.)
    completed, resumed = [], []
    events_path = data_dir / "campaigns" / job_id / "obs" / "events.jsonl"
    with open(events_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["event"] == "shard_completed":
                completed.append(event["shard"])
            elif event["event"] == "shard_resumed":
                resumed.append(event["shard"])
    assert len(completed) == len(set(completed))  # no shard executed twice
    assert len(set(resumed) - set(completed)) <= 1  # kill-raced event append
    assert set(completed) | set(resumed) == set(range(16))


def test_drain_requeues_running_job(tmp_path):
    """service.stop() mid-campaign releases the job back to queued."""
    spec = _spec(groups=12_000, shards=16, seed=22)
    data_dir = tmp_path / "data"
    service = CampaignService(data_dir, port=0, status_interval=0.0)
    service.start()
    try:
        client = ServiceClient(service.url, client="drain")
        _, payload = client.submit(spec)
        job_id = payload["job"]["id"]
        checkpoints = data_dir / "campaigns" / job_id / "journal" / "checkpoints"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _landed_checkpoints(checkpoints) >= 1:
                break
            time.sleep(0.02)
    finally:
        service.stop()
    job = service.queue.get(job_id)
    assert job.state == "queued"  # released, not failed/cancelled
    assert not job.cancel_requested
    # Second service finishes it; resumed shards prove no redo.
    with CampaignService(data_dir, port=0, status_interval=0.0) as svc2:
        final = ServiceClient(svc2.url).wait(job_id, timeout=120)
    assert final["state"] == "done"
    assert final["result"]["shards_resumed"] >= 1
    direct = CampaignRunner(spec_from_dict(spec)).run().metrics_dict()
    assert final["result"]["metrics"] == json.loads(json.dumps(direct))
