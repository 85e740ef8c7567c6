"""Surface audit: every public name under ``src/repro`` is reached from
an entry point.

``make surface`` runs this.  A node is a top-level class or function of
a module under ``src/repro``; an edge is an identifier (a name or an
attribute) in a definition's body, matched by name alone against every
definition -- so the walk over-counts what is live and never calls live
code dead.  A package ``__init__``'s re-export and an ``__all__``
string are not identifiers, hence not uses.  Module-level code of
``src/repro`` (preset tables, registries) runs on import and counts as
an entry point, as do, whole file by whole file:

* ``entry``    -- the ``repro/cli/`` package and ``__main__.py``,
  ``bench/``, ``benchmarks/``, ``tools/`` (the command handlers under
  ``repro/cli/`` are roots of the walk, not nodes of it);
* ``examples`` -- ``examples/`` and the fenced python blocks of
  ``README.md`` (``make examples`` keeps the former running);
* ``tests``    -- ``tests/``.

Three classes of public name are printed: reached by nothing, reached
only from ``tests``, reached only from ``examples`` (informational).
Exit status 1 unless the first two together are exactly
:data:`ALLOWED`.  ``tests/test_surface_contract.py`` calls
:func:`audit` for the same answer.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Dict, Iterator, List, Set

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: Public names only tests reach that stay, each with its reason.
ALLOWED: Dict[str, str] = {
    "fleet.montecarlo.simulate_group":
        "single-group seam test_fleet_kernel holds to reference_simulate_group",
    "fleet.spec.group_profile":
        "single-group seam test_fleet_kernel holds to reference_group_profile",
}

#: Directories and files whose every identifier is a use, one tuple per
#: origin in the order the walk adds them: entry, examples, tests.
ORIGINS = (
    ("src/repro/cli", "src/repro/__main__.py",
     "bench", "benchmarks", "tools"),
    ("examples", "README.md"),
    ("tests",),
)

_FENCE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def readme_blocks(path: str) -> List[str]:
    """The source of every fenced python block of the markdown at ``path``."""
    with open(path) as handle:
        return _FENCE.findall(handle.read())


def _sources(root: str, entry: str) -> Iterator[str]:
    """Python source texts under ``root/entry`` (a directory, a ``.py``
    file or a markdown file); nothing when it does not exist."""
    path = os.path.join(root, entry)
    if not os.path.exists(path):
        return
    if entry.endswith(".md"):
        yield from readme_blocks(path)
        return
    files = [path] if entry.endswith(".py") else [
        os.path.join(folder, name)
        for folder, _, names in os.walk(path) for name in names
        if name.endswith(".py")
    ]
    for name in files:
        with open(name) as handle:
            yield handle.read()


def _identifiers(node: ast.AST) -> Set[str]:
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def audit(root: str = ROOT) -> Dict[str, List[str]]:
    """``{"unreached": [...], "tests": [...], "examples": [...]}``: the
    public names of ``root/src/repro`` by the last origin that has to be
    added before a walk reaches them (``unreached``: none does)."""
    package = os.path.join(root, "src", "repro")
    roots = [os.path.join(root, entry) for entry in ORIGINS[0]]
    uses: Dict[str, Set[str]] = {}      # "pkg.mod.name" -> identifiers
    by_name: Dict[str, List[str]] = {}  # "name" -> every node so called
    seeds: Set[str] = set()
    for folder, _, names in os.walk(package):
        for name in names:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or any(
                path == entry or path.startswith(entry + os.sep)
                for entry in roots
            ):
                continue
            module = os.path.relpath(path, package)[:-3].replace(os.sep, ".")
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in tree.body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    key = f"{module}.{node.name}"
                    uses[key] = _identifiers(node)
                    by_name.setdefault(node.name, []).append(key)
                else:
                    seeds |= _identifiers(node)

    def reach(identifiers: Set[str], seen: Set[str]) -> Set[str]:
        stack = list(identifiers)
        while stack:
            for key in by_name.get(stack.pop(), ()):
                if key not in seen:
                    seen.add(key)
                    stack.extend(uses[key])
        return seen

    seen = reach(seeds, set())
    stages = []
    for entries in ORIGINS:
        for entry in entries:
            for source in _sources(root, entry):
                reach(_identifiers(ast.parse(source)), seen)
        stages.append(set(seen))
    public = {key for key in uses if not key.rpartition(".")[2].startswith("_")}
    return {
        "unreached": sorted(public - stages[2]),
        "tests": sorted(public & stages[2] - stages[1]),
        "examples": sorted(public & stages[1] - stages[0]),
    }


def main() -> int:
    found = audit()
    for label, title in (
        ("unreached", "reached by nothing"),
        ("tests", "reached only from tests/"),
        ("examples", "reached only from examples/ and README (informational)"),
    ):
        print(f"{title}: {len(found[label])}")
        for key in found[label]:
            reason = ALLOWED.get(key)
            print(f"  {key}" + (f"   allowed: {reason}" if reason else ""))
    dead = set(found["unreached"]) | set(found["tests"])
    for key in sorted(set(ALLOWED) - dead):
        print(f"allowed, but an entry point reaches it: {key}")
    ok = dead == set(ALLOWED)
    print("surface [OK]" if ok else "surface [FAIL]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
