"""Concurrency and determinism: dedup under racing clients, quotas,
fair-share ordering, and cancellation hygiene.

The ordering assertions use the queue's monotone ``seq`` /
``started_seq`` / ``finished_seq`` stamps rather than wall-clock
sampling, so they are total-order facts, not timing guesses.
"""

import json
import threading
import time

import pytest

from repro.service import CampaignService, JobQueue, ServiceClient

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


def test_racing_clients_one_job_one_execution(tmp_path):
    """Eight threads submit the same spec; exactly one job executes."""
    spec = _spec(seed=31)
    results = []
    with CampaignService(tmp_path, port=0) as svc:

        def submit(name):
            client = ServiceClient(svc.url, client=name)
            results.append(client.submit(spec))

        threads = [
            threading.Thread(target=submit, args=(f"client-{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        created = [p for status, p in results if status == 201]
        duplicates = [p for status, p in results if status == 200]
        assert len(created) == 1
        assert len(duplicates) == 7
        ids = {p["job"]["id"] for _, p in results}
        assert len(ids) == 1
        final = ServiceClient(svc.url).wait(ids.pop(), timeout=60)
    assert final["state"] == "done"
    assert final["attempts"] == 1  # dedup meant one execution, ever


def test_distinct_specs_all_complete(tmp_path):
    """Six different campaigns from three clients all run to done."""
    with CampaignService(
        tmp_path, port=0, max_jobs=2
    ) as svc:
        ids = []
        for i in range(6):
            client = ServiceClient(svc.url, client=f"c{i % 3}")
            status, payload = client.submit(_spec(seed=40 + i))
            assert status == 201
            ids.append(payload["job"]["id"])
        assert len(set(ids)) == 6
        finals = [ServiceClient(svc.url).wait(j, timeout=120) for j in ids]
    assert all(f["state"] == "done" for f in finals)
    # Every execution is journalled independently.
    assert all(f["result"]["completeness"] == 1.0 for f in finals)


def test_client_quota_serializes_a_client(tmp_path):
    """quota=1: a client's second job cannot start before its first ends."""
    with CampaignService(
        tmp_path, port=0, max_jobs=4, client_quota=1
    ) as svc:
        client = ServiceClient(svc.url, client="greedy")
        _, p1 = client.submit(_spec(seed=50))
        _, p2 = client.submit(_spec(seed=51))
        first = client.wait(p1["job"]["id"], timeout=60)
        second = client.wait(p2["job"]["id"], timeout=60)
    assert first["state"] == second["state"] == "done"
    earlier, later = sorted((first, second), key=lambda j: j["started_seq"])
    assert earlier["finished_seq"] < later["started_seq"]


def test_fair_share_lets_small_client_jump_backlog(tmp_path):
    """B's single job starts before A's backlog drains.

    Fair-share is instantaneous: the scheduler claims for the client
    with the fewest *running* jobs.  Both slots fill with alice's
    long campaigns; when the first slot frees, bob (0 running) must
    beat alice's queued third job even though it was submitted first.
    """
    with CampaignService(
        tmp_path, port=0, max_jobs=2
    ) as svc:
        alice = ServiceClient(svc.url, client="alice")
        bob = ServiceClient(svc.url, client="bob")
        a_ids = [
            alice.submit(_spec(seed=60 + i, groups=4_800, shards=8))[1]["job"]["id"]
            for i in range(3)
        ]
        b_id = bob.submit(_spec(seed=70, groups=48, shards=4))[1]["job"]["id"]
        finals = {
            job_id: ServiceClient(svc.url).wait(job_id, timeout=120)
            for job_id in a_ids + [b_id]
        }
    assert all(f["state"] == "done" for f in finals.values())
    assert finals[b_id]["started_seq"] < finals[a_ids[2]]["started_seq"]


def test_cancel_running_job_keeps_journal_consistent(tmp_path):
    """DELETE a running job: state cancelled, journal resumable, queue clean."""
    spec = _spec(groups=12_000, shards=16, seed=80)
    data_dir = tmp_path / "data"
    with CampaignService(data_dir, port=0) as svc:
        client = ServiceClient(svc.url, client="cx")
        _, payload = client.submit(spec)
        job_id = payload["job"]["id"]
        # Wait until it is actually running, then cancel.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(job_id)[1]["job"]["state"] == "running":
                break
            time.sleep(0.01)
        status, cancel_payload = client.cancel(job_id)
        assert status == 200
        assert cancel_payload["job"]["cancel_requested"]
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "cancelled"
        counts = svc.queue.counts()
        assert counts["running"] == 0  # no orphaned running entries

    # A reopened queue agrees (the record on disk is terminal)...
    queue = JobQueue(data_dir)
    assert queue.recovered == ()
    assert queue.get(job_id).state == "cancelled"
    # ...and resubmission resumes from the cancelled job's checkpoints.
    with CampaignService(data_dir, port=0) as svc2:
        client2 = ServiceClient(svc2.url, client="cx")
        status, payload = client2.submit(spec)
        assert status == 200 and payload["job"]["state"] == "queued"
        final = client2.wait(job_id, timeout=120)
    assert final["state"] == "done"
    if final["result"]["shards_resumed"]:
        events_path = data_dir / "campaigns" / job_id / "obs" / "events.jsonl"
        completed = []
        with open(events_path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event["event"] == "shard_completed":
                    completed.append(event["shard"])
        assert len(completed) == len(set(completed))  # nothing redone


def test_cancel_queued_job_never_runs(tmp_path):
    """Cancelling a queued job prevents any execution at all."""
    with CampaignService(
        tmp_path, port=0, max_jobs=1
    ) as svc:
        client = ServiceClient(svc.url, client="q")
        # Occupy the single slot, then queue and immediately cancel.
        _, p1 = client.submit(_spec(groups=4_800, shards=8, seed=90))
        _, p2 = client.submit(_spec(seed=91))
        status, cancelled = client.cancel(p2["job"]["id"])
        assert status == 200
        final2 = client.wait(p2["job"]["id"], timeout=30)
        client.wait(p1["job"]["id"], timeout=120)
    assert final2["state"] == "cancelled"
    assert final2["attempts"] == 0  # never claimed
    journal = tmp_path / "campaigns" / p2["job"]["id"]
    assert not journal.exists()  # no execution artefacts either


def test_a_running_job_answers_from_its_live_monitor(tmp_path):
    """A thread hammers GET /campaigns/{id} while a medium job runs: the
    status is the monitor's live one, and status.json appears only once
    the job has ended."""
    from repro.fleet import CampaignRunner, spec_from_dict

    spec = _spec(groups=4_800, shards=8, seed=95)
    answers = []
    with CampaignService(tmp_path, port=0) as svc:
        _, payload = ServiceClient(svc.url, client="watched").submit(spec)
        job_id = payload["job"]["id"]
        status_path = tmp_path / "campaigns" / job_id / "obs" / "status.json"

        def hammer():
            watcher = ServiceClient(svc.url)
            while True:
                code, detail = watcher.job(job_id)
                answers.append((code, detail, status_path.exists()))
                if code != 200 or detail["job"]["state"] in ("done", "failed"):
                    return

        thread = threading.Thread(target=hammer)
        thread.start()
        final = ServiceClient(svc.url).wait(job_id, timeout=120)
        thread.join(timeout=60)
    assert final["state"] == "done"
    assert all(code == 200 for code, _, _ in answers)
    statuses = [(d["status"], on_disk) for _, d, on_disk in answers if d["status"]]
    assert any(s["state"] == "running" and not on_disk for s, on_disk in statuses)
    done = [s["groups"]["done"] for s, _ in statuses]
    assert done == sorted(done) and done[-1] == 4_800
    direct = CampaignRunner(spec_from_dict(spec)).run().metrics_dict()
    assert final["result"]["metrics"] == json.loads(json.dumps(direct))
