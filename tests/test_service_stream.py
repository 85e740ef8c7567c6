"""Event-stream regression: what the API serves is the file on disk.

The streaming endpoint relays ``events.jsonl`` *bytes* from a client
offset, so the contract is byte-identity — for a one-shot fetch, for a
live follow of a running campaign, and for any assembly of partial
reads across disconnect/reconnect cycles.
"""

import http.client
import json
import os
import time

import pytest

from repro.obs.monitor import read_events_chunk
from repro.service import CampaignService, ServiceClient

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


def _events_file(service, job_id):
    path = service.scheduler.events_path(job_id)
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with CampaignService(
        tmp_path_factory.mktemp("stream"), port=0
    ) as svc:
        yield svc


def test_snapshot_is_byte_identical(service):
    client = ServiceClient(service.url, client="s")
    _, payload = client.submit(_spec(seed=201))
    job_id = payload["job"]["id"]
    client.wait(job_id, timeout=60)
    status, raw = client.events(job_id)
    assert status == 200
    disk = _events_file(service, job_id)
    assert raw == disk
    # Every line parses as an event; the stream is complete.
    events = [json.loads(line) for line in raw.splitlines() if line]
    assert events[0]["event"] == "campaign_started"
    assert events[-1]["event"] == "campaign_finished"


def test_offset_resume_is_byte_identical(service):
    client = ServiceClient(service.url, client="s")
    _, payload = client.submit(_spec(seed=202))
    job_id = payload["job"]["id"]
    client.wait(job_id, timeout=60)
    disk = _events_file(service, job_id)
    for offset in (0, 1, 17, len(disk) // 2, len(disk) - 1, len(disk)):
        status, raw = client.events(job_id, offset=offset)
        assert status == 200
        assert raw == disk[offset:], f"offset {offset}"
    # Past-the-end offsets return nothing rather than erroring.
    status, raw = client.events(job_id, offset=len(disk) + 1000)
    assert status == 200 and raw == b""


def test_follow_live_campaign_to_completion(service):
    """follow=1 on a running campaign streams through its finish."""
    client = ServiceClient(service.url, client="s")
    _, payload = client.submit(_spec(groups=4_800, shards=8, seed=203))
    job_id = payload["job"]["id"]
    status, raw = client.events(job_id, follow=True)
    assert status == 200
    events = [json.loads(line) for line in raw.splitlines() if line]
    assert events[-1]["event"] == "campaign_finished"
    shards_done = [e["shard"] for e in events if e["event"] == "shard_completed"]
    assert sorted(shards_done) == list(range(8))
    # The followed stream was exactly the file, in order.
    raw_again = client.events(job_id)[1]
    disk = _events_file(service, job_id)
    assert raw_again == disk
    assert [json.loads(l) for l in disk.splitlines() if l] == events


def test_disconnect_reconnect_assembles_identical_bytes(service):
    """Partial reads + reconnects from the next offset lose nothing."""
    client = ServiceClient(service.url, client="s")
    _, payload = client.submit(_spec(groups=4_800, shards=8, seed=204))
    job_id = payload["job"]["id"]
    assembled = b""
    # Read a little, hang up mid-stream, reconnect where we left off.
    for _round in range(64):
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        conn.request(
            "GET", f"/campaigns/{job_id}/events?offset={len(assembled)}&follow=1"
        )
        response = conn.getresponse()
        assert response.status == 200
        chunk = response.read(97)  # deliberately ragged reads
        conn.close()  # disconnect, possibly mid-line
        assembled += chunk
        job = client.job(job_id)[1]["job"]
        if job["state"] == "done" and not chunk:
            break
        time.sleep(0.02)
    else:
        raise AssertionError("campaign never finished during reconnect loop")
    # Drain whatever remains in one final snapshot fetch.
    assembled += client.events(job_id, offset=len(assembled))[1]
    assert assembled == _events_file(service, job_id)


def test_read_events_chunk_helper(tmp_path):
    """The obs-layer primitive the API streams through."""
    path = os.path.join(tmp_path, "events.jsonl")
    chunk, offset = read_events_chunk(path)
    assert chunk == b"" and offset == 0  # missing file is empty, not an error
    with open(path, "wb") as handle:
        handle.write(b'{"event":"a"}\n')
    chunk, offset = read_events_chunk(path)
    assert chunk == b'{"event":"a"}\n' and offset == len(chunk)
    with open(path, "ab") as handle:
        handle.write(b'{"event":"b"}\n')
    chunk2, offset2 = read_events_chunk(path, offset)
    assert chunk2 == b'{"event":"b"}\n'
