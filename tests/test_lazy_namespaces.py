"""Package namespaces resolve their re-exports on first use (DESIGN section 17).

Every re-exporting package ``__init__`` holds a ``{name: defining
module}`` table and imports nothing; ``repro._lazy`` turns the table into
the package's ``__getattr__`` / ``__dir__``.  These tests hold each
table to the objects it names.  What an import loads is the import
contract's (``tests/test_import_contract.py``), and what a forked
worker's task loads is checked here in a fresh interpreter.
"""

import importlib
import inspect
import pathlib

import pytest

from tools.import_budget import measure

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in SRC.joinpath("repro").rglob("__init__.py")
)
#: The packages that re-export: every one but the CLI and ``repro.obs``.
LAZY = [name for name in PACKAGES if name not in ("repro.cli", "repro.obs")]


def test_sixteen_packages_re_export_through_a_table():
    assert len(LAZY) == 16
    for name in LAZY:
        package = importlib.import_module(name)
        assert set(package.__all__) >= set(package._EXPORTS), name
    assert not hasattr(importlib.import_module("repro.obs"), "__all__")


@pytest.mark.parametrize("name", LAZY)
def test_every_public_name_is_the_defining_modules_object(name):
    package = importlib.import_module(name)
    for public in package.__all__:
        value = getattr(package, public)
        if public not in package._EXPORTS:  # defined in the init itself
            assert inspect.getmodule(value) is package
            continue
        module = importlib.import_module(package._EXPORTS[public], name)
        assert vars(module)[public] is value, (name, public)
        if inspect.isclass(value) or inspect.isfunction(value):
            # The table names where the object is defined, not a re-exporter.
            assert value.__module__ == module.__name__, (name, public)


@pytest.mark.parametrize("name", LAZY)
def test_dir_lists_every_public_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
    assert namespace["Simulation"] is importlib.import_module(
        "repro.sim.engine"
    ).Simulation


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    assert not hasattr(repro.core, "NoSuchScrubber")
    with pytest.raises(AttributeError, match="NoSuchScrubber"):
        repro.core.NoSuchScrubber
    with pytest.raises(ImportError):
        exec("from repro.fleet import NoSuchRunner", {})


def test_a_name_is_cached_in_the_package_after_its_first_read():
    report = measure(
        "import repro.sched\n"
        "assert 'CFQScheduler' not in vars(repro.sched)\n"
        "assert 'repro.sched.cfq' not in sys.modules\n"
        "scheduler = repro.sched.CFQScheduler\n"
        "assert vars(repro.sched)['CFQScheduler'] is scheduler\n"
        "assert 'repro.sched.noop' not in sys.modules\n"
    )
    assert "repro.sched.cfq" in report["repro"]


_FORKED_TASK = """
import os, tempfile
from repro.fleet import (
    CampaignRunner, CampaignSpec, DriveClass, FleetSpec, ScrubPolicySpec,
    fleet_shard_task,
)

out = tempfile.mkdtemp()


def task(**params):
    before = set(sys.modules)
    result = fleet_shard_task(**params)
    with open(os.path.join(out, str(params["shard_index"])), "w") as handle:
        json.dump([os.getpid(), sorted(set(sys.modules) - before)], handle)
    return result


CampaignRunner(CampaignSpec(
    fleet=FleetSpec(
        groups=40, disks_per_group=4,
        classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
    ),
    policies=(ScrubPolicySpec(name="weekly", period_hours=168.0),),
    mission_years=5.0, seed=3, shards=4,
), workers=2, task=task).run()
imported = {}
for shard in sorted(os.listdir(out)):
    with open(os.path.join(out, shard)) as handle:
        pid, imported[shard] = json.load(handle)
    assert pid != os.getpid(), "the shard ran in the parent"
    os.remove(os.path.join(out, shard))
os.rmdir(out)
assert sorted(imported) == ["0", "1", "2", "3"], imported
assert all(modules == [] for modules in imported.values()), imported
"""


def test_a_forked_workers_tasks_import_nothing_the_parent_had_not():
    """A forked worker inherits the parent's modules; a name its task
    read first would be imported again in every fork."""
    measure(_FORKED_TASK)
