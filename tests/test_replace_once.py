"""Durable state lands through one primitive, once or appended.

Every whole file the stack writes -- checkpoints, the journal header,
job records, trace-store headers and catalogs, the span trace folded
from a monitor's log and every operator-facing output -- goes through
:func:`repro.obs.export.atomic_write`, the only code under
``src/repro`` that creates a temp file and publishes it with
``os.replace`` or ``os.link`` (the ``ast`` contract below).  A trace
store's chunk files are plain writes: ``header.json`` is their commit
record, and a store without one does not open.  The monitor's
``events.jsonl`` is its one append handle.

Every publish is a crash point a recovery has to reason about, so a run
replaces each destination at most once: checkpoints as their shards
land, and nothing else -- the monitor only appends, and a full resume
publishes nothing at all.  The journal's ``manifest.json`` is linked
exactly once, when the journal is created, and never replaced.  The
service's job records (``jobs/<id>.json``) are the one exception: each
state transition of a job replaces its record.

:data:`CALLERS` names one write of each durable-state caller; the
failure drill in ``tests/test_service_dispatch.py`` reuses it.
"""

import ast
import json
import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.cli._shared import write_json
from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.fleet.journal import CampaignJournal
from repro.fleet.spec import campaign_digest, spec_from_dict
from repro.obs.export import write_jsonl
from repro.obs.monitor import CampaignMonitor
from repro.obs.prometheus import write_textfile
from repro.obs.report import CampaignFold, build_report, read_events
from repro.obs.trace import write_chrome_trace
from repro.parallel.cache import ResultCache
from repro.service import CampaignService, JobQueue, ServiceClient
from repro.traces import Trace, TraceCorpus, write_trace

SERVICE_SPEC = {
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


def _spy(monkeypatch, name):
    """Destinations of every ``os.<name>`` call, in call order."""
    calls = []
    real = getattr(os, name)

    def spy(src, dst, *args, **kwargs):
        calls.append(os.fspath(dst))
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, name, spy)
    return calls


@pytest.fixture
def replaced(monkeypatch):
    return _spy(monkeypatch, "replace")


@pytest.fixture
def linked(monkeypatch):
    return _spy(monkeypatch, "link")


def _assert_replaced_at_most_once(calls):
    counts = Counter(calls)
    assert max(counts.values(), default=0) <= 1, counts.most_common(3)
    assert not [dst for dst in counts if dst.endswith("manifest.json")]


def test_a_monitored_journalled_run_and_its_resume(replaced, linked, tmp_path):
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
        del replaced[:], linked[:]
        result = CampaignRunner(
            spec,
            journal_dir=tmp_path / "journal",
            monitor=CampaignMonitor(str(obs), interval=0.0),
        ).run()
        _assert_replaced_at_most_once(replaced)
        names = sorted(os.path.basename(dst) for dst in replaced)
        return result, names, list(linked)

    fresh, names, links = run()
    assert fresh.shards_completed == 4
    assert sum(name.endswith(".pkl") for name in names) == 4
    assert links == [str(tmp_path / "journal" / "manifest.json")]
    resumed, names, links = run()
    assert resumed.shards_resumed == 4
    assert names == []
    assert links == []


@pytest.mark.service
def test_a_service_job_writes_its_status_once(replaced, tmp_path):
    """Its status is written once: as the log's last record."""
    with CampaignService(tmp_path, port=0) as svc:
        client = ServiceClient(svc.url)
        _, payload = client.submit(SERVICE_SPEC)
        job_id = payload["job"]["id"]
        final = client.wait(job_id, timeout=60)
        _, detail = client.job(job_id)
    assert final["state"] == "done"
    jobs = os.path.join(str(tmp_path), "jobs") + os.sep
    _assert_replaced_at_most_once(
        [dst for dst in replaced if not dst.startswith(jobs)]
    )
    obs = tmp_path / "campaigns" / job_id / "obs"
    assert not [dst for dst in replaced if dst.startswith(str(obs))]
    assert [p.name for p in obs.iterdir()] == ["events.jsonl"]
    events = read_events(str(obs / "events.jsonl"))
    assert events[-1]["event"] == "campaign_finished"
    assert detail["status"] == json.loads(json.dumps(CampaignFold(events).status()))
    assert detail["status"]["state"] == "done"


# -- one write per caller -------------------------------------------------------


def _trace(n=64):
    return Trace(
        times=np.arange(n) * 0.01,
        lbns=np.arange(n) * 8,
        sectors=np.full(n, 8),
        is_write=np.arange(n) % 3 == 0,
        name="t",
        capacity_sectors=1 << 20,
    )


def _job_record(tmp_path):
    queue = JobQueue(tmp_path)
    digest = campaign_digest(spec_from_dict(SERVICE_SPEC))
    target = tmp_path / "jobs" / f"{digest}.json"
    return target, lambda: queue.submit(SERVICE_SPEC, client="a")


def _cache_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" * 32
    cache.put(key, "old")
    (target,) = (tmp_path / "cache").glob("*/*.pkl")
    return target, lambda: cache.put(key, "new")


def _store_header(tmp_path):
    directory = tmp_path / "store"
    return directory / "header.json", lambda: write_trace(_trace(), directory)


def _corpus_catalog(tmp_path):
    root = tmp_path / "corpus"
    TraceCorpus.create(root)
    target = root / TraceCorpus.CATALOG_NAME
    return target, lambda: TraceCorpus.open(root).add("entry", _trace())


def _journal_header(tmp_path):
    root = tmp_path / "journal"
    spec = spec_from_dict(SERVICE_SPEC)
    return root / "manifest.json", lambda: CampaignJournal(root, spec)


def _finished_monitor(obs):
    """A monitor through a one-shard campaign, its event log closed."""
    monitor = CampaignMonitor(str(obs), interval=0.0)
    monitor.campaign_started(
        digest="d" * 64,
        shard_ranges=[(0, 4)],
        workers=1,
        mission_years=1.0,
    )
    monitor.campaign_finished(SimpleNamespace(
        shards_failed=0, supervision={}, completeness=1.0, shards_total=1,
        shards_completed=1, shards_resumed=0, failed_shards=[], policies=[],
        telemetry=None,
    ))
    return monitor


def _monitor_trace(tmp_path):
    """The span trace a reader folds from a monitor's log."""
    monitor = _finished_monitor(tmp_path / "obs")
    target = tmp_path / "obs" / "trace.json"
    return target, lambda: write_chrome_trace(
        str(target), monitor.fold.chrome_events()
    )


#: One write of each durable-state caller: ``factory(tmp_path)`` returns
#: ``(target, write)``; ``write()`` lands ``target`` through the caller's
#: own code path.
CALLERS = {
    "job_record": _job_record,
    "cache_entry": _cache_entry,
    "store_header": _store_header,
    "corpus_catalog": _corpus_catalog,
    "journal_header": _journal_header,
    "monitor_trace": _monitor_trace,
}


def _report(tmp_path):
    obs = tmp_path / "obs"
    _finished_monitor(obs)
    return obs / "report.html", lambda: build_report(str(obs))


def _output(name, write):
    """A :data:`CALLERS`-style factory for ``write(path)`` of file ``name``."""
    return lambda tmp_path: (
        tmp_path / name, lambda: write(str(tmp_path / name))
    )


#: The operator-facing outputs, in the same form as :data:`CALLERS`.
OUTPUTS = {
    "prometheus": _output(
        "m.prom", lambda path: write_textfile(path, {"counters": {"a": 1}})
    ),
    "jsonl": _output("log.jsonl", lambda path: write_jsonl(path, [{"a": 1}])),
    "chrome_trace": _output("trace.json", lambda path: write_chrome_trace(path, [])),
    "json_out": _output("out.json", lambda path: write_json(path, {"a": 1})),
    "report": _report,
}


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


@pytest.mark.parametrize("factory", [*CALLERS.values(), *OUTPUTS.values()],
                         ids=[*CALLERS, *OUTPUTS])
def test_a_written_file_is_0644_under_umask_022(factory, umask_022, tmp_path):
    target, write = factory(tmp_path)
    write()
    assert oct(target.stat().st_mode & 0o777) == oct(0o644)


# -- the contract: one module creates and publishes temp files ---------------

#: ``(module, name)`` pairs only the primitive may call.
PUBLISH = {
    ("os", "replace"),
    ("os", "rename"),
    ("os", "link"),
    ("tempfile", "mkstemp"),
    ("tempfile", "NamedTemporaryFile"),
}
PRIMITIVE = "obs/export.py"


def _publishes(tree):
    """Where ``tree`` names one of :data:`PUBLISH`, under any import alias."""
    modules = {module for module, _ in PUBLISH}
    aliases = {module: module for module in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                (alias.asname or alias.name, alias.name)
                for alias in node.names if alias.name in modules
            )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            found += [
                f"from {node.module} import {alias.name}"
                for alias in node.names if (node.module, alias.name) in PUBLISH
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (aliases.get(node.value.id), node.attr) in PUBLISH
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def _package_modules():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


class TestOnePrimitive:
    def test_only_the_primitive_creates_and_publishes_temp_files(self):
        uses = {
            name: found
            for name, tree in _package_modules()
            if name != PRIMITIVE and (found := _publishes(tree))
        }
        assert uses == {}

    def test_the_primitive_is_where_the_walk_looks(self):
        (tree,) = [tree for name, tree in _package_modules() if name == PRIMITIVE]
        assert {"os.replace", "os.link"} <= set(_publishes(tree))

    @pytest.mark.parametrize("source, count", [
        ("os.replace(tmp, path)", 1),
        ("os.rename(a, b); os.link(a, b)", 2),
        ("fd, tmp = tempfile.mkstemp(dir=d)", 1),
        ("import tempfile as t\nt.NamedTemporaryFile()", 1),
        ("import os as _os\npublish = _os.replace", 1),
        ("from os import replace, link", 2),
        ("from tempfile import mkstemp", 1),
        ("with atomic_write(path, exclusive=True) as fh: pass", 0),
        ("text.replace('a', 'b')", 0),
        ("tempfile.TemporaryDirectory()", 0),
        ('"""os.replace once lived here."""', 0),
    ])
    def test_the_walk_sees_what_it_should(self, source, count):
        assert len(_publishes(ast.parse(source))) == count
