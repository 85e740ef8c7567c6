"""Contract tests for the campaign service HTTP API.

A real server on an ephemeral port, a real stdlib client — these pin
the wire contract: status codes, JSON shapes and error bodies for
every route, and the acceptance criterion that a POST-submitted
campaign produces metrics bit-identical to running the same spec
directly through :class:`CampaignRunner`.
"""

import json

import pytest

from repro.fleet import CampaignRunner, campaign_digest, spec_from_dict
from repro.service import CampaignService, ServiceClient

pytestmark = pytest.mark.service

JOB_FIELDS = {
    "id", "spec", "client", "state", "seq", "started_seq", "finished_seq",
    "attempts", "cancel_requested", "error", "result", "shards_total",
    "created", "updated", "started", "finished",
}


def _spec(groups=48, shards=4, seed=13, policy="weekly", window=84.0):
    """Tiny campaign (sub-50ms): explicit latent windows skip MLET."""
    return {
        "fleet": {
            "groups": groups,
            "disks_per_group": 4,
            "mttr_hours": 36.0,
            "spare_delay_hours": 6.0,
            "classes": [{"mttf_hours": 2.5e4, "lse_burst_rate_per_hour": 3e-4}],
        },
        "policies": [{"name": policy, "latent_window_hours": window}],
        "mission_years": 6.0,
        "seed": seed,
        "shards": shards,
    }


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with CampaignService(
        tmp_path_factory.mktemp("service"), port=0
    ) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, client="contract")


def test_healthz(client):
    status, payload = client.health()
    assert status == 200
    assert payload["ok"] is True
    assert payload["dispatch_error"] is None
    assert set(payload["counts"]) == {
        "queued", "running", "done", "failed", "cancelled"
    }


def test_submit_created_schema(client):
    status, payload = client.submit(_spec(seed=100))
    assert status == 201
    assert payload["created"] is True
    job = payload["job"]
    assert set(job) == JOB_FIELDS
    assert job["state"] in ("queued", "running", "done")
    assert job["client"] == "contract"
    assert job["shards_total"] == 4
    # The id is the campaign digest of the canonical spec.
    assert job["id"] == campaign_digest(spec_from_dict(job["spec"]))


def test_duplicate_submit_same_job_no_new_work(client):
    spec = _spec(seed=101)
    status1, p1 = client.submit(spec)
    assert status1 == 201
    job_id = p1["job"]["id"]
    done = client.wait(job_id, timeout=30)
    assert 0.0 < done["created"] <= done["started"] <= done["finished"]
    # Same spec again -- and again with cosmetic JSON differences
    # (int-vs-float) that must canonicalize to the same digest.
    cosmetic = json.loads(json.dumps(spec))
    cosmetic["mission_years"] = 6
    for resubmission in (spec, cosmetic):
        status2, p2 = client.submit(resubmission)
        assert status2 == 200
        assert p2["created"] is False
        assert p2["job"]["id"] == job_id
        assert p2["job"]["attempts"] == 1  # answered from the existing job
        assert p2["job"]["state"] == "done"


def test_unknown_job_404(client):
    for fetch in (client.job, client.cancel):
        status, payload = fetch("no-such-job")
        assert status == 404
        assert "unknown campaign" in payload["error"]
    status, _raw = client.report("no-such-job")
    assert status == 404


def test_malformed_spec_400(client):
    cases = [
        ({"fleet": {}}, "missing fields"),
        ({"policies": []}, "missing fields"),
        ({"fleet": {}, "policies": []}, "non-empty list"),
        ({"fleet": {"groups": -1}, "policies": [{}]}, "groups"),
        ({"fleet": {"bogus": 1}, "policies": [{}]}, "unknown fields"),
        ({"fleet": {"groups": "many"}, "policies": [{}]}, "integer"),
    ]
    for spec, needle in cases:
        status, payload = client.submit(spec)
        assert status == 400, spec
        assert needle in payload["error"], (spec, payload)


def test_non_json_body_400(client):
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request("POST", "/campaigns", body=b"{nope")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"] == "body is not valid JSON"
    finally:
        conn.close()


def test_wrong_method_405(client):
    status, payload = client._request("PUT", "/campaigns", body={})
    assert status == 405
    assert "error" in payload
    status, _ = client._request("POST", "/healthz", body={})
    assert status == 405


def test_unknown_route_404(client):
    status, payload = client._request("GET", "/nope")
    assert status == 404
    assert "no such route" in payload["error"]


def test_job_detail_has_status_and_paths(client):
    _, p = client.submit(_spec(seed=102))
    job_id = p["job"]["id"]
    client.wait(job_id, timeout=30)
    status, detail = client.job(job_id)
    assert status == 200
    assert set(detail) == {"job", "status", "paths"}
    assert detail["status"]["state"] == "done"
    assert detail["paths"]["events"].endswith("events.jsonl")


def test_report_html(client):
    _, p = client.submit(_spec(seed=103))
    job_id = p["job"]["id"]
    client.wait(job_id, timeout=30)
    status, html = client.report(job_id)
    assert status == 200
    assert b"<!DOCTYPE html>" in html or b"<html" in html


def test_cancel_terminal_is_idempotent_noop(client):
    _, p = client.submit(_spec(seed=104))
    job_id = p["job"]["id"]
    client.wait(job_id, timeout=30)
    for _ in range(2):
        status, payload = client.cancel(job_id)
        assert status == 200
        assert payload["job"]["state"] == "done"  # not clobbered


def test_events_bad_offset_400(client):
    _, p = client.submit(_spec(seed=105))
    job_id = p["job"]["id"]
    for offset in ("x", "-5"):
        status, payload = client._request(
            "GET", f"/campaigns/{job_id}/events?offset={offset}"
        )
        assert status == 400


def test_submitted_metrics_bit_identical_to_direct_run(client):
    """The acceptance criterion: service-run == direct CampaignRunner."""
    spec_dict = _spec(seed=106, groups=96, shards=6)
    _, p = client.submit(spec_dict)
    job = client.wait(p["job"]["id"], timeout=60)
    assert job["state"] == "done"
    direct = CampaignRunner(spec_from_dict(spec_dict)).run().metrics_dict()
    # The job record crossed JSON (tuples become lists): compare both
    # sides through the same canonical round-trip.
    assert job["result"]["metrics"] == json.loads(json.dumps(direct))
    assert job["result"]["completeness"] == 1.0
    assert job["result"]["shards_completed"] == 6


def test_cli_submit_prints_where_the_time_went(service, tmp_path, capsys):
    """``--wait`` and ``--status`` report ``queued <ms> · ran <ms>``."""
    import re

    from repro.cli import main

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(_spec(seed=140)))
    assert main(
        ["submit", "--url", service.url, "--spec-json", str(spec_file), "--wait"]
    ) == 0
    waited = capsys.readouterr().out
    timing = re.compile(r"queued \d+ ms · ran \d+ ms")
    assert re.search(r"-> done \(" + timing.pattern + r"\)", waited)
    job_id = campaign_digest(spec_from_dict(_spec(seed=140)))
    assert main(["submit", "--url", service.url, "--status", job_id]) == 0
    assert timing.search(capsys.readouterr().out)


# -- the client's own tick ----------------------------------------------------


@pytest.mark.parametrize(
    "poll, expected",
    [
        (0.05, [0.005, 0.01, 0.02, 0.04, 0.05, 0.05]),
        (0.005, [0.005] * 6),  # what the benchmark's spelled-out loop uses
        (0.002, [0.002] * 6),  # ``poll`` is a ceiling, also below 5 ms
    ],
)
def test_wait_backs_off_from_5ms_up_to_poll(monkeypatch, poll, expected):
    """``wait`` sleeps 5, 10, 20, 40 ms ... and never longer than ``poll``."""
    api = ServiceClient("http://127.0.0.1:1")
    calls = []

    def job(job_id):
        calls.append(job_id)
        state = "done" if len(calls) > len(expected) else "running"
        return 200, {"job": {"id": job_id, "state": state}}

    delays = []
    monkeypatch.setattr(api, "job", job)
    monkeypatch.setattr("repro.service.client.time.sleep", delays.append)
    assert api.wait("j", timeout=60, poll=poll)["state"] == "done"
    assert delays == pytest.approx(expected)
    assert max(delays) <= poll
