"""Crash-safety regression tests for the observability writers (PR 8).

A SIGKILL can land between any two instructions, so every whole-file
output (exported JSONL logs, Chrome traces) goes temp-file +
``os.replace``: the path either holds the previous complete version or
the new complete version, never a torn one; a campaign monitor killed
mid-run leaves its append-only event log, and a report can be built
from it.  These tests actually SIGKILL child processes mid-write and
inspect what survives.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_child(code: str, ready_token: str) -> subprocess.Popen:
    """Start a child, wait for it to print ``ready_token``, return it."""
    child = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        text=True,
    )
    for line in child.stdout:
        if ready_token in line:
            return child
    raise AssertionError("child exited before becoming ready")


class TestWriteJsonl:
    def test_atomic_on_path_destination(self, tmp_path):
        from repro.obs.export import write_jsonl

        dest = tmp_path / "log.jsonl"
        assert write_jsonl(str(dest), [{"a": 1}, {"b": 2}]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]
        lines = dest.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}]

    def test_failing_record_leaves_previous_file(self, tmp_path):
        from repro.obs.export import write_jsonl

        dest = tmp_path / "log.jsonl"
        write_jsonl(str(dest), [{"version": 1}])

        def poisoned():
            yield {"version": 2}
            raise RuntimeError("source died mid-export")

        try:
            write_jsonl(str(dest), poisoned())
        except RuntimeError:
            pass
        assert json.loads(dest.read_text()) == {"version": 1}
        # The temp file was cleaned up on the error path.
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]

    def test_sigkill_mid_export_never_tears_the_file(self, tmp_path):
        dest = tmp_path / "log.jsonl"
        dest.write_text('{"version": 1}\n')
        child = _run_child(
            f"""
            import itertools, sys
            from repro.obs.export import write_jsonl

            def records():
                for index in itertools.count():
                    if index == 3:
                        print("READY", flush=True)
                    yield {{"index": index, "payload": "x" * 4096}}

            write_jsonl({str(dest)!r}, records())
            """,
            ready_token="READY",
        )
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        # The infinite export can never have completed, so the rename
        # never happened: the previous complete file must be intact.
        assert dest.read_text() == '{"version": 1}\n'

    def test_file_object_destination_still_streams(self, tmp_path):
        import io

        from repro.obs.export import write_jsonl

        buffer = io.StringIO()
        assert write_jsonl(buffer, [{"a": 1}]) == 1
        assert json.loads(buffer.getvalue()) == {"a": 1}


class TestStatusJson:
    def test_sigkill_mid_status_churn_leaves_valid_json(self, tmp_path):
        obs = tmp_path / "obs"
        child = _run_child(
            f"""
            import itertools
            from repro.obs.monitor import CampaignMonitor

            monitor = CampaignMonitor({str(obs)!r}, interval=0.0)
            monitor.campaign_started(
                digest="d" * 64,
                shard_ranges=[(0, 10), (10, 10)],
                policy_names=["weekly"],
                workers=2,
                mission_years=5.0,
                disks_per_group=4,
            )
            print("READY", flush=True)
            for index in itertools.count():
                monitor.shard_heartbeat(
                    0, 1, {{"done": index, "total": 10 ** 9}}
                )
            """,
            ready_token="READY",
        )
        # Let it churn through heartbeats, then kill mid-flight.
        child.stdout.read(0)
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        # status.json is written when a campaign finishes, never mid-run.
        assert not (obs / "status.json").exists()
        # Torn events (if the kill split a line) must not break readers,
        # and the event log alone is enough for a report.
        from repro.obs.report import build_report, load_obs_dir

        data = load_obs_dir(str(obs))
        assert data["events"][0]["event"] == "campaign_started"
        assert all("event" in e for e in data["events"])
        assert os.path.getsize(build_report(str(obs))) > 0


class TestChromeTrace:
    def test_atomic_on_path_destination(self, tmp_path):
        from repro.obs.trace import write_chrome_trace

        dest = tmp_path / "trace.json"
        events = [{"name": "a", "ph": "i", "ts": 0, "pid": 0, "tid": 0}]
        assert write_chrome_trace(str(dest), events) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
        assert json.loads(dest.read_text())["traceEvents"] == events

    def test_sigkill_mid_export_never_tears_the_file(self, tmp_path):
        dest = tmp_path / "trace.json"
        dest.write_text('{"traceEvents": [], "displayTimeUnit": "ms"}')
        child = _run_child(
            f"""
            import itertools
            from repro.obs.trace import write_chrome_trace

            class Endless(list):
                # json.dump streams a list element by element, so the
                # export is still mid-document when the kill lands.
                def __iter__(self):
                    for index in itertools.count():
                        if index == 3:
                            print("READY", flush=True)
                        yield {{"name": "x" * 4096, "ph": "i", "ts": index}}

            write_chrome_trace({str(dest)!r}, Endless([None]))
            """,
            ready_token="READY",
        )
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        assert json.loads(dest.read_text()) == {
            "traceEvents": [], "displayTimeUnit": "ms",
        }
