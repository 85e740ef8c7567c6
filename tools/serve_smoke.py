"""Service smoke: submit, dedup, SIGKILL-and-restart, cancel, stream.

``make serve-smoke`` runs this end to end.  Five acts, mirroring the
PR 10 acceptance criteria:

1. **Contract** — start a real ``repro serve`` subprocess on an
   ephemeral port; health, 404/400 error bodies, submit 201.
2. **Bit-identity** — the POST-submitted campaign's metrics must
   equal a direct in-process :class:`CampaignRunner` run of the same
   spec, and resubmission must be answered from the existing job
   (200, attempts unchanged — zero new shards executed).
3. **SIGKILL and resume** — kill -9 the service once the running
   campaign has checkpoints on disk, restart on the same data dir:
   the job is re-queued, resumes from the journal
   (``shards_resumed`` > 0), and finishes bit-identical to act 2.
4. **Cancel** — a running campaign is cancelled cooperatively; the
   queue ends with no orphaned ``running`` entries and resubmission
   resumes the cancelled job's checkpoints to completion.
5. **Stream** — the NDJSON ``/events`` endpoint returns bytes
   identical to the on-disk ``events.jsonl``, including when
   reassembled from an offset after a disconnect.

Deterministic spec seeds; a failure reproduces by rerunning.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fleet import CampaignRunner, spec_from_dict  # noqa: E402
from repro.service import CampaignService, ServiceClient  # noqa: E402


def make_spec(groups=12_000, shards=16, seed=29) -> dict:
    return {
        "fleet": {
            "groups": groups,
            "disks_per_group": 4,
            "mttr_hours": 36.0,
            "spare_delay_hours": 6.0,
            "classes": [{"mttf_hours": 2.5e4, "lse_burst_rate_per_hour": 3e-4}],
        },
        "policies": [
            {"name": "weekly", "latent_window_hours": 84.0},
            {"name": "staggered", "algorithm": "staggered",
             "latent_window_hours": 62.0},
        ],
        "mission_years": 6.0,
        "seed": seed,
        "shards": shards,
    }


def say(msg: str) -> None:
    print(f"serve-smoke: {msg}", flush=True)


def fail(msg: str) -> "NoReturn":  # noqa: F821
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def start_serve(data_dir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--data-dir", data_dir, "--port", "0", "--status-interval", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on " in line:
            return proc, line.split("listening on ", 1)[1].split()[0]
        if proc.poll() is not None:
            fail(f"serve exited at startup: {proc.stdout.read()}")
    fail("serve never reported its port")


def wait_for_checkpoints(path: str, minimum: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # Landed entries only: the cache makes ``<key[:2]>/`` and a
        # ``.tmp`` file before the ``.pkl`` is renamed into place, and a
        # kill in that window leaves one checkpoint fewer than counted.
        landed = sum(
            name.endswith(".pkl")
            for _, _, names in os.walk(path) for name in names
        )
        if landed >= minimum:
            return
        time.sleep(0.02)
    fail(f"fewer than {minimum} checkpoints appeared in {path}")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    data_dir = os.path.join(tmp, "data")
    spec = make_spec()

    # Act 1: contract against a real subprocess service.
    proc, url = start_serve(data_dir)
    job_id = None
    try:
        client = ServiceClient(url, client="smoke")
        status, payload = client.health()
        if status != 200 or payload.get("ok") is not True:
            fail(f"healthz: {status} {payload}")
        status, payload = client.job("no-such-job")
        if status != 404:
            fail(f"unknown id should 404, got {status}")
        status, payload = client.submit({"fleet": {}})
        if status != 400:
            fail(f"malformed spec should 400, got {status}")
        say("act 1 ok: health, 404, 400 contract")

        status, payload = client.submit(spec)
        if status != 201 or not payload["created"]:
            fail(f"submit: {status} {payload}")
        job_id = payload["job"]["id"]
        say(f"act 1 ok: campaign {job_id[:12]} submitted")

        # Act 3 setup: kill once checkpoints exist.
        checkpoints = os.path.join(
            data_dir, "campaigns", job_id, "journal", "checkpoints"
        )
        wait_for_checkpoints(checkpoints, 2)
    finally:
        proc.kill()
        proc.wait()
    say("act 3: SIGKILLed the service mid-campaign")

    record = json.load(open(os.path.join(data_dir, "jobs", f"{job_id}.json")))
    if record["state"] != "running":
        fail(f"dead service should leave job running on disk: {record['state']}")

    # Act 3: restart in-process on the same data dir; resume must be
    # a journal replay, then Act 2's bit-identity check.
    with CampaignService(data_dir, port=0) as svc:
        if svc.queue.recovered != (job_id,):
            fail(f"recovery missed the orphan: {svc.queue.recovered}")
        client = ServiceClient(svc.url, client="smoke")
        final = client.wait(job_id, timeout=300)
        if final["state"] != "done":
            fail(f"resumed job ended {final['state']}: {final.get('error')}")
        if final["attempts"] != 2:
            fail(f"expected 2 attempts (one per service), got {final['attempts']}")
        if final["result"]["shards_resumed"] < 2:
            fail("resume did not replay journalled shards")
        say(
            f"act 3 ok: resumed {final['result']['shards_resumed']} shards "
            f"from checkpoints, completed {final['result']['shards_completed']}"
        )

        direct = CampaignRunner(spec_from_dict(spec)).run().metrics_dict()
        if final["result"]["metrics"] != json.loads(json.dumps(direct)):
            fail("service metrics differ from direct CampaignRunner run")
        say("act 2 ok: metrics bit-identical to a direct run")

        status, payload = client.submit(spec)
        if status != 200 or payload["created"] or payload["job"]["attempts"] != 2:
            fail(f"duplicate submit not answered from existing job: "
                 f"{status} {payload}")
        say("act 2 ok: duplicate submission answered from existing job")

        # Act 4: cancel a fresh running campaign, then resume it.
        spec2 = make_spec(seed=31)
        status, payload = client.submit(spec2)
        job2 = payload["job"]["id"]
        wait_for_checkpoints(
            os.path.join(data_dir, "campaigns", job2, "journal", "checkpoints"), 1
        )
        client.cancel(job2)
        final2 = client.wait(job2, timeout=60)
        if final2["state"] != "cancelled":
            fail(f"cancel ended {final2['state']}")
        if svc.queue.counts()["running"] != 0:
            fail("orphaned running entry after cancel")
        status, payload = client.submit(spec2)
        if status != 200 or payload["job"]["state"] != "queued":
            fail(f"resubmit of cancelled job did not requeue: {status}")
        final2 = client.wait(job2, timeout=300)
        if final2["state"] != "done":
            fail(f"cancelled-then-resubmitted job ended {final2['state']}")
        direct2 = CampaignRunner(spec_from_dict(spec2)).run().metrics_dict()
        if final2["result"]["metrics"] != json.loads(json.dumps(direct2)):
            fail("metrics after cancel+resume differ from direct run")
        say(
            f"act 4 ok: cancelled, resumed "
            f"({final2['result']['shards_resumed']} shards from checkpoints), "
            "bit-identical"
        )

        # Act 5: streamed events == file bytes, with offset reassembly.
        status, streamed = client.events(job_id)
        events_path = os.path.join(
            data_dir, "campaigns", job_id, "obs", "events.jsonl"
        )
        disk = open(events_path, "rb").read()
        if status != 200 or streamed != disk:
            fail("streamed events differ from events.jsonl")
        cut = len(disk) // 3
        reassembled = (
            client.events(job_id, offset=0)[1][:cut]
            + client.events(job_id, offset=cut)[1]
        )
        if reassembled != disk:
            fail("offset reassembly differs from events.jsonl")
        say(f"act 5 ok: {len(disk)} event bytes byte-identical over HTTP")

    say("all acts passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
