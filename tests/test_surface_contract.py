"""The surface contract: only what an entry point reaches ships.

``tools/surface.py`` walks from the CLI, ``bench/``, ``benchmarks/``,
``tools/``, ``examples/`` and the README's python blocks to every
top-level class and function, every method and every defaulted
parameter under ``src/repro``; what only ``tests/`` reach (or nothing
does) must be each table's literal allow-list.  ``make surface`` prints
the same answer.  The planted cases run on a temp copy of
``repro.stats`` so the walk is seen to fail when it should.
"""

import ast
import importlib
import pathlib
import shutil

import pytest

from tools.surface import TABLES, audit, readme_blocks

REPO = pathlib.Path(__file__).resolve().parent.parent

PLANTED = '''

def planted_alone():
    return 1


def planted_exported():
    return 2


def planted_inner():
    return 3


def planted_outer():
    return planted_inner()


class PlantedModel:
    def __init__(self, order, scale=1.0, shift=0.0):
        self.order = order

    def fit(self):
        return self.order

    def tested_only(self):
        return 4

    def shared(self):
        return 5


class PlantedHelper:
    def shared(self):
        return 6


def planted_params(x, positional=0, keyword=0, unused=0):
    return x


def planted_task(value, factor=1):
    return value * factor
'''

HANDLER = '''
def run(args, runner):
    from repro.stats import acf
    from repro.stats.autocorr import (
        PlantedHelper, PlantedModel, planted_params, planted_task,
    )

    PlantedModel(2, scale=3.0).fit()
    PlantedHelper().shared()
    planted_params(1, 2, keyword=3)
    runner.map(planted_task, [{"value": 1}])
    return acf([1.0], 0)
'''


def test_the_live_tree_is_its_allow_list():
    found = audit()
    for table, _, allowed in TABLES:
        dead = set(found[table]["unreached"]) | set(found[table]["tests"])
        assert dead == set(allowed), table
        assert all(reason.strip() for reason in allowed.values()), table
    # the walk found the package and the examples really are roots
    assert "raid.array.RaidArray" in found["names"]["examples"]
    assert "raid.array.RaidArray.rebuild" in found["methods"]["examples"]


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """``audit`` of a tree holding a copy of ``repro.stats`` with
    functions and classes planted in ``autocorr.py``, a CLI package whose
    ``analyze`` handler calls ``acf`` and some of the planted code, and a
    test that calls ``planted_outer`` and ``tested_only``."""
    root = tmp_path_factory.mktemp("surface")
    package = root / "src" / "repro"
    shutil.copytree(REPO / "src" / "repro" / "stats", package / "stats")
    with open(package / "stats" / "autocorr.py", "a") as handle:
        handle.write(PLANTED)
    with open(package / "stats" / "__init__.py", "a") as handle:
        handle.write(
            "from repro.stats.autocorr import planted_exported\n"
            "__all__ += ['planted_exported']\n"
        )
    (package / "cli").mkdir()
    (package / "cli" / "__init__.py").write_text("def main():\n    return 0\n")
    (package / "cli" / "analyze.py").write_text(HANDLER)
    (root / "tests").mkdir()
    (root / "tests" / "test_planted.py").write_text(
        "from repro.stats.autocorr import PlantedModel, planted_outer\n\n"
        "def test_it():\n"
        "    assert planted_outer() == 3\n"
        "    assert PlantedModel(1).tested_only() == 4\n"
    )
    return audit(str(root))


def _listed(planted, table):
    return sum(planted[table].values(), [])


def test_what_the_cli_calls_is_live(planted):
    listed = _listed(planted, "names")
    assert "stats.autocorr.acf" not in listed
    # a command handler is a root of the walk, never library surface
    assert not [key for key in listed if key.startswith("cli.")]
    # no root left
    assert "stats.hazard.usable_fraction" in planted["names"]["unreached"]


def test_a_planted_public_function_is_reported(planted):
    assert "stats.autocorr.planted_alone" in planted["names"]["unreached"]


def test_an_init_re_export_is_not_a_use(planted):
    assert "stats.autocorr.planted_exported" in planted["names"]["unreached"]


def test_a_name_reached_only_through_a_tests_only_function_is_reported(planted):
    # planted_inner has a caller under src/, so a name scan calls it
    # live; its only caller is reached from tests/ alone.
    assert planted["names"]["tests"] == [
        "stats.autocorr.planted_inner", "stats.autocorr.planted_outer",
    ]


def test_a_method_only_tests_call_is_reported(planted):
    assert planted["methods"]["tests"] == [
        "stats.autocorr.PlantedModel.tested_only",
    ]
    assert "stats.autocorr.PlantedModel.fit" not in _listed(planted, "methods")


def test_a_method_sharing_a_live_name_is_live(planted):
    # Only PlantedHelper().shared() is called; matching by name alone
    # keeps PlantedModel.shared alive too -- the documented over-count.
    listed = _listed(planted, "methods")
    assert "stats.autocorr.PlantedModel.shared" not in listed
    assert "stats.autocorr.PlantedHelper.shared" not in listed


def test_a_keyword_nobody_passes_is_reported(planted):
    unreached = planted["params"]["unreached"]
    assert "stats.autocorr.planted_params(unused=)" in unreached
    assert "stats.autocorr.PlantedModel.__init__(shift=)" in unreached


def test_a_keyword_passed_by_position_is_live(planted):
    listed = _listed(planted, "params")
    assert "stats.autocorr.planted_params(positional=)" not in listed
    assert "stats.autocorr.planted_params(keyword=)" not in listed


def test_a_class_call_passes_its_init_keywords(planted):
    listed = _listed(planted, "params")
    assert "stats.autocorr.PlantedModel.__init__(scale=)" not in listed


def test_a_task_passed_as_a_value_has_every_keyword_passed(planted):
    listed = _listed(planted, "params")
    assert "stats.autocorr.planted_task(factor=)" not in listed


def test_every_readme_import_resolves():
    blocks = readme_blocks(str(REPO / "README.md"))
    imports = [
        node for block in blocks for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
    ]
    assert len(imports) > 10  # the fences were found
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
