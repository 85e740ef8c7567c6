"""Durable state is written once or appended, never rewritten.

Every ``os.replace`` is a crash point a recovery has to reason about,
so a run replaces each destination at most once: checkpoints as their
shards land, the monitor's ``status.json`` / ``summary.json`` /
``trace.json`` as the campaign finishes.  ``events.jsonl`` is appended,
and the journal's ``manifest.json`` is created once and never replaced.
The service's job records (``jobs/<id>.json``) are the one exception:
each state transition of a job replaces its record.
"""

import json
import os
from collections import Counter

import pytest

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor
from repro.service import CampaignService, ServiceClient


@pytest.fixture
def replaced(monkeypatch):
    """Destinations of every ``os.replace``, in call order."""
    calls = []
    real_replace = os.replace

    def spy(src, dst, *args, **kwargs):
        calls.append(os.fspath(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    return calls


def _assert_replaced_at_most_once(calls):
    counts = Counter(calls)
    assert max(counts.values(), default=0) <= 1, counts.most_common(3)
    assert not [dst for dst in counts if dst.endswith("manifest.json")]


def test_a_monitored_journalled_run_and_its_resume(replaced, tmp_path):
    spec = CampaignSpec(
        fleet=FleetSpec(
            groups=48,
            disks_per_group=4,
            classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
        ),
        policies=(ScrubPolicySpec(name="weekly", latent_window_hours=84.0),),
        mission_years=5.0,
        seed=5,
        shards=4,
    )
    obs = tmp_path / "obs"

    def run():
        del replaced[:]
        result = CampaignRunner(
            spec,
            journal_dir=tmp_path / "journal",
            monitor=CampaignMonitor(str(obs), interval=0.0),
        ).run()
        _assert_replaced_at_most_once(replaced)
        return result, sorted(os.path.basename(dst) for dst in replaced)

    fresh, names = run()
    assert fresh.shards_completed == 4
    assert sum(name.endswith(".pkl") for name in names) == 4
    resumed, names = run()
    assert resumed.shards_resumed == 4
    assert names == ["status.json", "summary.json", "trace.json"]


@pytest.mark.service
def test_a_service_job_writes_its_status_once(replaced, monkeypatch, tmp_path):
    spec = {
        "fleet": {
            "groups": 24,
            "disks_per_group": 4,
            "classes": [{"mttf_hours": 2.5e4, "lse_burst_rate_per_hour": 3e-4}],
        },
        "policies": [{"name": "weekly", "latent_window_hours": 84.0}],
        "mission_years": 6.0,
        "seed": 17,
        "shards": 2,
    }
    finished_first = []
    real_replace = os.replace

    def spy(src, dst, *args, **kwargs):
        if os.path.basename(dst) == "status.json":
            events = os.path.join(os.path.dirname(dst), "events.jsonl")
            with open(events, encoding="utf-8") as handle:
                last = json.loads(handle.read().splitlines()[-1])
            finished_first.append(last["event"] == "campaign_finished")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)  # on top of the fixture's spy
    with CampaignService(tmp_path, port=0) as svc:
        client = ServiceClient(svc.url)
        _, payload = client.submit(spec)
        final = client.wait(payload["job"]["id"], timeout=60)
    assert final["state"] == "done"
    jobs = os.path.join(str(tmp_path), "jobs") + os.sep
    _assert_replaced_at_most_once(
        [dst for dst in replaced if not dst.startswith(jobs)]
    )
    assert finished_first == [True]
