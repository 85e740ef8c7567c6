"""The import contract: no scipy on any import path (DESIGN section 17).

Importing any package of ``repro`` loads no scipy module and no module
of ``repro`` but package ``__init__`` modules; neither do the tuning and
replay paths load scipy; a fleet campaign ends holding
``scipy.special`` and nothing heavier; tuning, a campaign and ``repro
serve`` load none of the simulator they do not run; ``repro serve``
starts and answers its API with no numpy, and only its campaign slot
loads the fleet kernel; ``repro submit`` loads neither.  The pytest
process imported all of it long ago, so every dynamic case runs in a
fresh interpreter through ``tools/import_budget.py`` -- whose
``forbidden``, ``strays``, ``misloaded``, ``OFF_LIMITS`` and ``LOADERS``
are the one statement of what a row may hold, shared with ``make
import-budget``.

Nothing here asserts a wall-clock: seconds are the bench's job.
"""

import ast
import pathlib

import pytest

from tools.import_budget import (
    LOADERS, OFF_LIMITS, PACKAGES, SCENARIOS, SIMULATOR, SIMULATOR_AIDS,
    WATCHED, forbidden, measure, misloaded, serve_ready_seconds, strays,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Names that may appear nowhere under ``src/`` -- not behind a
#: function-level import either: what they did is done without them.
BANNED = ("scipy.signal", "scipy.stats.chi2", "scipy.stats.norm")

#: Banned names one file may import inside a function, and nowhere else:
#: multi-day synthetic traces run their AR(1) recursion through
#: ``lfilter`` (DESIGN section 19), a branch tuning and replay never
#: reach (``TestFreshInterpreter``).
LAZY = {"traces/synth.py": ("scipy.signal",)}


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


def _violations(tree, allowed=()):
    """(line, what) for every statement or name in ``tree`` that breaks the
    static contract; at most one finding per node.  A name under one of
    ``allowed`` is judged as an unbanned one: function-level imports only."""
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
            and not any(name == a or name.startswith(a + ".") for a in allowed)
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
            allowed = LAZY.get(path.relative_to(SRC).as_posix(), ())
            for line, what in _violations(ast.parse(source), allowed):
                breaches.append(f"{path.relative_to(SRC)}:{line}: {what}")
            for word in ("lfilter", "scipy.signal"):
                if word in source and not allowed:
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

    @pytest.mark.parametrize("source, count", [
        ("from scipy.signal import lfilter", 1),
        ("import scipy.signal", 1),
        ("def f():\n    from scipy.signal import lfilter", 0),
        ("def f():\n    from scipy.stats import chi2", 1),
    ])
    def test_an_allowed_name_is_a_function_level_import(self, source, count):
        assert len(_violations(ast.parse(source), ("scipy.signal",))) == count


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

    @pytest.mark.parametrize("package", PACKAGES)
    def test_importing_a_package_loads_only_package_inits(self, package):
        assert OFF_LIMITS[f"import {package}"] == (("repro",), frozenset())
        assert measure(f"import {package}")["repro"] == []

    @pytest.mark.parametrize("scenario", ["tune", "campaign", "serve"])
    def test_a_path_loads_none_of_the_simulator_it_does_not_run(self, scenario):
        body, allowed = SCENARIOS[scenario]
        report = measure(body)
        assert strays(report["repro"], *OFF_LIMITS[scenario]) == []
        assert forbidden(report["scipy"], allowed) == []
        if scenario == "tune":  # what it does load of the simulator
            assert "repro.sim.rng" in report["repro"]
            assert "repro.disk.drive" in report["repro"]
            return
        assert OFF_LIMITS[scenario] == (SIMULATOR + SIMULATOR_AIDS, frozenset())
        assert "repro.fleet.campaign" in report["repro"]
        if scenario == "serve":
            # Start-up, /healthz and the POST loaded none of numpy, scipy
            # and the kernel: the campaign slot imported each, when it
            # claimed the job.
            assert sorted(report["loaded_by"]) == sorted(WATCHED)
            assert misloaded(report["loaded_by"], LOADERS["serve"]) == []
            assert LOADERS["serve"] == "repro-campaign"

    def test_a_submit_loads_neither_numpy_nor_the_fleet_kernel(self):
        body, allowed = SCENARIOS["submit"]
        report = measure(body)
        assert report["loaded_by"] == {}
        assert misloaded(report["loaded_by"], LOADERS["submit"]) == []
        assert strays(report["repro"], *OFF_LIMITS["submit"]) == []
        assert forbidden(report["scipy"], allowed) == []
        assert "repro.fleet.spec" in report["repro"]  # it built the spec

    def test_serve_ready_reads_the_listening_line(self):
        assert 0.0 < serve_ready_seconds(spawns=1) < 60.0

    def test_the_parser_loads_the_cli_and_not_numpy(self):
        """``repro --help``: the handlers import what they run."""
        report = measure(
            "from repro.cli import build_parser\n"
            "build_parser().format_help()\n"
            "assert 'numpy' not in sys.modules\n"
        )
        assert strays(report["repro"], ("repro",)) == [
            name for name in report["repro"] if name.startswith("repro.cli.")
        ]
        assert "repro.cli.fleet" in report["repro"]

    def test_a_campaign_holds_scipy_special_and_nothing_heavier(self):
        body, allowed = SCENARIOS["campaign"]
        loaded = measure(body)["scipy"]
        assert "scipy.special" in loaded  # the interval is the exact one
        assert forbidden(loaded, allowed) == []  # no stats, signal, linalg, ...


class TestStrays:
    def test_a_banned_name_is_a_module_or_a_whole_package(self):
        loaded = ["repro.sim.engine", "repro.sim.rng", "repro.simulate",
                  "repro.disk.drive", "repro.disk.drives", "repro.core.mlet"]
        assert strays(loaded, ("repro.sim", "repro.disk.drive")) == [
            "repro.sim.engine", "repro.sim.rng", "repro.disk.drive",
        ]
        assert strays(loaded, ("repro.sim",), frozenset({"repro.sim.rng"})) == [
            "repro.sim.engine",
        ]
        assert strays(loaded, ("repro",)) == loaded


class TestMisloaded:
    def test_only_a_thread_of_the_named_prefix_may_import_first(self):
        loaded_by = {"numpy": "repro-campaign_0", "scipy": "MainThread"}
        assert misloaded(loaded_by, "repro-campaign") == ["scipy (by MainThread)"]
        assert misloaded(loaded_by, None) == [
            "numpy (by repro-campaign_0)", "scipy (by MainThread)",
        ]
        assert misloaded({}, None) == []


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
