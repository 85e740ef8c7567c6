"""The surface contract: only what an entry point reaches ships.

``tools/surface.py`` walks from the CLI, ``bench/``, ``benchmarks/``,
``tools/``, ``examples/`` and the README's python blocks to every
top-level class and function under ``src/repro``; what only ``tests/``
reach (or nothing does) must be its literal allow-list.  ``make
surface`` prints the same answer.  The planted cases run on a temp copy
of ``repro.stats`` so the walk is seen to fail when it should.
"""

import ast
import importlib
import pathlib
import shutil

import pytest

from tools.surface import ALLOWED, audit, readme_blocks

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
'''


def test_the_live_tree_is_its_allow_list():
    found = audit()
    assert set(found["unreached"]) | set(found["tests"]) == set(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
    # the walk found the package and the examples really are roots
    assert "raid.array.RaidArray" in found["examples"]


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """``audit`` of a tree holding a copy of ``repro.stats`` with four
    functions planted in ``autocorr.py``, a CLI package whose ``analyze``
    handler calls ``acf`` and a test that calls ``planted_outer``."""
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
    (package / "cli" / "analyze.py").write_text(
        "def run(args):\n"
        "    from repro.stats import acf\n\n"
        "    return acf([1.0], 0)\n"
    )
    (root / "tests").mkdir()
    (root / "tests" / "test_planted.py").write_text(
        "from repro.stats.autocorr import planted_outer\n\n"
        "def test_it():\n    assert planted_outer() == 3\n"
    )
    return audit(str(root))


def test_what_the_cli_calls_is_live(planted):
    listed = planted["unreached"] + planted["tests"] + planted["examples"]
    assert "stats.autocorr.acf" not in listed
    # a command handler is a root of the walk, never library surface
    assert not [key for key in listed if key.startswith("cli.")]
    assert "stats.hazard.usable_fraction" in planted["unreached"]  # no root left


def test_a_planted_public_function_is_reported(planted):
    assert "stats.autocorr.planted_alone" in planted["unreached"]


def test_an_init_re_export_is_not_a_use(planted):
    assert "stats.autocorr.planted_exported" in planted["unreached"]


def test_a_name_reached_only_through_a_tests_only_function_is_reported(planted):
    # planted_inner has a caller under src/, so a name scan calls it
    # live; its only caller is reached from tests/ alone.
    assert planted["tests"] == [
        "stats.autocorr.planted_inner", "stats.autocorr.planted_outer",
    ]


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
