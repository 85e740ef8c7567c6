"""The import contract: no scipy on any import path (DESIGN section 17).

Importing any package of ``repro`` loads no scipy module; neither do
the tuning and replay paths; a fleet campaign ends holding
``scipy.special`` and nothing heavier.  The pytest process imported
scipy long ago, so every dynamic case runs in a fresh interpreter
through ``tools/import_budget.py`` -- whose ``forbidden`` is the one
statement of what a row may hold, shared with ``make import-budget``.

Nothing here asserts a wall-clock: seconds are the bench's job.
"""

import ast
import pathlib

import pytest

from tools.import_budget import PACKAGES, SCENARIOS, forbidden, measure

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Names that may appear nowhere under ``src/`` -- not behind a
#: function-level import either: what they did is done without them.
BANNED = ("scipy.signal", "scipy.stats.chi2", "scipy.stats.norm")


def _imported_names(node):
    """Dotted names an import statement binds from, e.g. ``scipy.stats.chi2``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _dotted(node):
    """``a.b.c`` for an attribute chain on a plain name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _violations(tree):
    """(line, what) for every statement or name in ``tree`` that breaks the
    static contract; at most one finding per node."""
    found = []

    def visit(node, in_function):
        names = _imported_names(node)
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain:
            names = [chain]
        names = [name for name in names if name.split(".")[0] == "scipy"]
        banned = [
            name for name in names
            if any(name == b or name.startswith(b + ".") for b in BANNED)
        ]
        if banned:
            found.append((node.lineno, f"{banned[0]} is banned outright"))
        elif names and not chain and not in_function:
            found.append((node.lineno, f"module-level import of {names[0]}"))
        if chain:
            return  # the chain was judged whole; its prefixes are not news
        inside = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


class TestStaticContract:
    def test_no_module_level_scipy_import_under_src(self):
        breaches = []
        files = sorted(SRC.rglob("*.py"))
        assert len(files) > 50  # the walk found the package
        for path in files:
            source = path.read_text()
            for line, what in _violations(ast.parse(source)):
                breaches.append(f"{path.relative_to(SRC)}:{line}: {what}")
            for word in ("lfilter", "scipy.signal"):
                if word in source:
                    breaches.append(f"{path.relative_to(SRC)}: mentions {word}")
        assert breaches == []

    @pytest.mark.parametrize("source, count", [
        ("import scipy", 1),
        ("from scipy import stats", 1),
        ("try:\n    from scipy.linalg import solve_toeplitz\nexcept ImportError:\n    pass", 1),
        ("class A:\n    import scipy.special", 1),
        ("def f():\n    from scipy.stats import rankdata", 0),
        ("def f():\n    from scipy.special import ndtri, gammaincinv", 0),
        ("def f():\n    from scipy.stats import chi2", 1),
        ("def f():\n    from scipy.stats import norm as gaussian", 1),
        ("def f():\n    import scipy.signal", 1),
        ("def f():\n    from scipy import signal", 1),
        ("def f():\n    import scipy\n    return scipy.stats.norm.ppf(0.5)", 1),
        ("def f():\n    import scipy.special\n    return scipy.special.ndtri(0.5)", 0),
        ("from . import scipy", 0),
        ("import numpy", 0),
    ])
    def test_the_walk_sees_what_it_should(self, source, count):
        assert len(_violations(ast.parse(source))) == count


class TestFreshInterpreter:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_importing_a_package_loads_no_scipy(self, package):
        report = measure(f"import {package}")
        assert forbidden(report["scipy"]) == []
        assert report["modules"] > 50  # the probe really imported something

    @pytest.mark.parametrize("scenario", ["tune", "replay"])
    def test_tuning_and_replay_load_no_scipy(self, scenario):
        body, allowed = SCENARIOS[scenario]
        assert allowed == frozenset()
        assert forbidden(measure(body)["scipy"], allowed) == []

    def test_a_campaign_holds_scipy_special_and_nothing_heavier(self):
        body, allowed = SCENARIOS["campaign"]
        loaded = measure(body)["scipy"]
        assert "scipy.special" in loaded  # the interval is the exact one
        assert forbidden(loaded, allowed) == []  # no stats, signal, linalg, ...


class TestForbidden:
    def test_nothing_allowed_means_no_scipy_at_all(self):
        assert forbidden([]) == []
        assert forbidden(["scipy", "scipy._lib"]) == ["scipy", "scipy._lib"]

    def test_private_helpers_ride_with_an_allowed_subpackage(self):
        loaded = ["scipy", "scipy.__config__", "scipy._lib", "scipy.special",
                  "scipy.version"]
        assert forbidden(loaded, frozenset({"special"})) == []
        assert forbidden(loaded + ["scipy.stats", "scipy.linalg"],
                         frozenset({"special"})) == ["scipy.linalg", "scipy.stats"]
