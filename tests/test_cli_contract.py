"""The CLI contract: what ``repro.cli`` promises its callers and itself.

* The flag surface is ``tests/cli_flags.jsonl``, one line per flag,
  recorded from ``build_parser()`` at the commit before ``cli.py``
  became a package (``python tests/test_cli_contract.py > tests/
  cli_flags.jsonl`` rewrites it from the tree on ``PYTHONPATH``), less
  the five ``--kernel`` rows and the ``kernel-backend`` choice of
  ``--axes`` that went with the kernel knob, and the ``feed`` choice
  of ``--axes`` that went with the record feed: 17 parsers, 148 flags.
  The package's parser equals it except for :data:`REGROUPED`.
* Choices the parser spells out equal the library's own tuples.
* Each shared flag set is written once, and no command module imports
  the library before its handler runs.
* The three ways to the top-level help print one text.
"""

import argparse
import ast
import json
import pathlib
import subprocess
import sys

from repro.cli import COMMANDS, build_parser, main

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro" / "cli"
FIXTURE = pathlib.Path(__file__).with_name("cli_flags.jsonl")

#: `detect` and `trace` checked these three against each other by hand
#: (`trace` never checked ``--foreground``); now they are one argparse
#: group, as ``--trace | --synthetic`` always was on `analyze`.
REGROUPED = {
    (command, dest): ["foreground", "synthetic", "trace"]
    for command in ("repro detect", "repro trace")
    for dest in ("foreground", "synthetic", "trace")
}


def _parsers(parser, path=("repro",)):
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, path + (name,))


def flag_rows(parser):
    """One dict per flag of ``parser`` and its subparsers, in order."""
    rows = []
    for path, sub in _parsers(parser):
        exclusive = {
            action.dest: sorted(member.dest for member in group._group_actions)
            for group in sub._mutually_exclusive_groups
            for action in group._group_actions
        }
        for action in sub._actions:
            if isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            ):
                continue
            rows.append({
                "parser": path,
                "options": list(action.option_strings) or [action.dest],
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": action.choices and list(action.choices),
                "nargs": action.nargs,
                "required": action.required,
                "exclusive": exclusive.get(action.dest),
            })
    return rows


def test_the_flag_surface_is_the_recorded_one():
    recorded = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    assert len(recorded) == 148
    # `repro` itself and `repro corpus` hold subcommands, no flags
    assert len({row["parser"] for row in recorded}) == 15
    assert len(list(_parsers(build_parser()))) == 17
    for row in recorded:
        key = (row["parser"], row["dest"])
        if key in REGROUPED:
            assert row["exclusive"] is None
            row["exclusive"] = REGROUPED[key]
    by_key = lambda row: (row["parser"], row["dest"])  # noqa: E731
    assert sorted(flag_rows(build_parser()), key=by_key) == sorted(
        recorded, key=by_key
    )


def test_spelled_out_choices_equal_the_library_s():
    from repro.verify import AXES

    rows = flag_rows(build_parser())
    (axes,) = [row for row in rows if row["dest"] == "axes"]
    assert tuple(axes["choices"]) == AXES


def _trees():
    files = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in files} == {
        "__init__", "__main__", "_shared", *COMMANDS
    }
    return {path.name: ast.parse(path.read_text()) for path in files}


def test_each_shared_flag_is_written_once():
    literals = [
        node.value
        for tree in _trees().values() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for flag in (
        "--cache-dir", "--task-timeout", "--max-requests", "--trace-out",
        "--mttf-hours",
    ):
        assert literals.count(flag) == 1, flag


def test_no_module_of_the_package_imports_the_library_on_import():
    for name, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
                assert (node.level, node.module) == (1, "_shared") or (
                    (name, node.level, node.module, names)
                    == ("__main__.py", 1, None, ["main"])
                ), (name, node.module, names)
                continue
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                continue
            for module in imported:
                assert module.split(".")[0] != "repro", (name, module)


def test_the_three_ways_to_help_print_one_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    text = capsys.readouterr().out
    assert "exit codes:" in text and all(name in text for name in COMMANDS)
    for module in ("repro.cli", "repro"):
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            env={"PYTHONPATH": str(REPO / "src"), "COLUMNS": "80"},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout == text, module


if __name__ == "__main__":
    for flag_row in flag_rows(build_parser()):
        print(json.dumps(flag_row, sort_keys=True))
