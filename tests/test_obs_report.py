"""Tests for the self-contained HTML run report (PR 8)."""

import json

import pytest

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor
from repro.obs.report import build_report, load_obs_dir, render_html


def _spec():
    return CampaignSpec(
        fleet=FleetSpec(
            groups=24,
            disks_per_group=4,
            classes=(
                DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
        ),
        mission_years=4.0,
        seed=2,
        shards=3,
    )


@pytest.fixture
def obs_dir(tmp_path):
    obs = tmp_path / "obs"
    CampaignRunner(
        _spec(), monitor=CampaignMonitor(str(obs), interval=0.0)
    ).run()
    return obs


class TestLoad:
    def test_loads_all_surfaces(self, obs_dir):
        data = load_obs_dir(str(obs_dir))
        assert data["summary"]["state"] == "done"
        assert data["status"]["progress"] == 1.0
        assert any(e["event"] == "campaign_finished" for e in data["events"])

    def test_tolerates_torn_event_tail(self, obs_dir):
        with open(obs_dir / "events.jsonl", "a") as fh:
            fh.write('{"event": "campai')  # torn mid-crash line
        data = load_obs_dir(str(obs_dir))
        assert all("event" in e for e in data["events"])

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_obs_dir(str(tmp_path / "nope"))

    def test_status_only_is_enough(self, obs_dir):
        (obs_dir / "summary.json").unlink()
        data = load_obs_dir(str(obs_dir))
        assert data["summary"] is None
        assert data["status"]["state"] == "done"


class TestRender:
    def test_self_contained_html(self, obs_dir):
        html = render_html(load_obs_dir(str(obs_dir)))
        assert html.startswith("<!DOCTYPE html>")
        # Self-contained: no external scripts, stylesheets or images.
        assert "src=" not in html
        assert "href=" not in html
        assert "weekly" in html
        assert "drive-years" in html

    def test_report_shows_shard_histogram_and_phases(self, obs_dir):
        html = render_html(load_obs_dir(str(obs_dir)))
        assert "<svg" in html
        assert "policy weekly" in html

    def test_build_report_default_path(self, obs_dir):
        path = build_report(str(obs_dir))
        assert path == str(obs_dir / "report.html")
        text = (obs_dir / "report.html").read_text()
        assert "</html>" in text

    def test_build_report_custom_path(self, obs_dir, tmp_path):
        out = tmp_path / "campaign.html"
        assert build_report(str(obs_dir), out_path=str(out)) == str(out)
        assert out.exists()

    def test_degraded_run_is_flagged(self, obs_dir):
        status = json.loads((obs_dir / "status.json").read_text())
        status["state"] = "degraded"
        status["per_shard"][1]["state"] = "failed"
        status["per_shard"][1]["error"] = "worker died"
        summary = json.loads((obs_dir / "summary.json").read_text())
        summary["state"] = "degraded"
        html = render_html(
            {"summary": summary, "status": status, "events": []}
        )
        assert "degraded" in html
        assert "worker died" in html
