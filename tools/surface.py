"""Surface audit: every public name, every method and every defaulted
parameter under ``src/repro`` is used from an entry point.

``make surface`` runs this.  One pass of stdlib ``ast`` feeds three
walks; each over-counts what is live, so none ever calls live code dead.

*Names.*  A node is a top-level class or function of a module under
``src/repro``, or a method of such a class; an edge is an identifier (a
name or an attribute) in a node's body, matched by name alone against
every node.  A class's node holds its bases, decorators, class-level
statements and its dunder methods (the roots of its methods); every
other method is a node of its own, reached once its class is reached and
its name is an identifier in reached code -- so the body of a method no
entry point calls reaches nothing.  A package ``__init__``'s re-export
and an ``__all__`` string are not identifiers, hence not uses.

*Methods.*  A non-dunder method of a reached class is live if its name
is an identifier in reached code, whatever the object it is looked up
on: a name shared with a live method of another class keeps both alive.

*Defaulted parameters.*  A parameter with a default, of a reached
top-level function or method (``__init__`` included; every other dunder
is called by the language), is live if a call in reached code passes
it, by keyword or by position.  ``f(...)`` goes to every top-level
function and class named ``f``; ``obj.f(...)`` to every function, method
and class so named, a method's positions starting after ``self``; a
class to its ``__init__`` or its nearest base's; ``cls(...)`` to the
enclosing class; ``super().__init__(...)`` to the base's.  A call with
``*args`` or ``**kwargs`` passes every parameter, and so does naming a
function anywhere but in call position (``runner.map(task, ...)``,
``partial(f, ...)``, a registry entry), except in an annotation, the
class argument of ``isinstance`` / ``issubclass``, an ``except`` clause
and a class's bases.

Module-level code of ``src/repro`` (preset tables, registries) runs on
import and counts as an entry point, as do, whole file by whole file:

* ``entry``    -- the ``repro/cli/`` package and ``__main__.py``,
  ``bench/``, ``benchmarks/``, ``tools/`` (the command handlers under
  ``repro/cli/`` are roots of the walk, not nodes of it);
* ``examples`` -- ``examples/`` and the fenced python blocks of
  ``README.md`` (``make examples`` keeps the former running);
* ``tests``    -- ``tests/``.

Each table prints three classes: used by nothing, used only from
``tests``, used only from ``examples`` (informational).  A table's first
two classes together must be exactly its allow-list -- :data:`ALLOWED`,
:data:`ALLOWED_METHODS`, :data:`ALLOWED_PARAMS`, one reason per entry --
or the exit status is 1.  ``tests/test_surface_contract.py`` calls
:func:`audit` for the same answer.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: Public names only tests reach that stay, each with its reason.
ALLOWED: Dict[str, str] = {
    "fleet.montecarlo.simulate_group":
        "single-group seam test_fleet_kernel holds to reference_simulate_group",
    "fleet.spec.group_profile":
        "single-group seam test_fleet_kernel holds to reference_group_profile",
    "verify.search.check_search_vs_grid":
        "oracle: test_search holds the halving search to the exhaustive "
        "grid through it",
}

#: Methods only tests call (or nothing does) that stay, each with its
#: reason: a test seam, an observation a golden-oracle test reads, or
#: code another ROADMAP item owns.
ALLOWED_METHODS: Dict[str, str] = {
    "disk.cache.DiskCache.segments":
        "oracle: test_disk_drive's _ReferenceDrive compares the cache "
        "segments after every command",
    "sim.engine.Simulation.peek":
        "oracle: test_sim_one_loop compares the next event time of the "
        "timer store and of plain timeouts",
}

_ITEM_1F = "item 1(f): sim/vector.py goes with the frozen bench kernel"
_ITEM_12 = "item 12: raid/ is scheduled for its own deletion"

#: Defaulted parameters only tests pass (or nothing does) that stay,
#: each with its reason as for :data:`ALLOWED_METHODS`; a key is
#: ``module.function(parameter=)``.
ALLOWED_PARAMS: Dict[str, str] = {
    "obs.monitor.CampaignMonitor.__init__(clock=)":
        "seam: test_obs_monitor steps progress and ETA on a fake clock",
    "obs.monitor.CampaignMonitor.__init__(wall_clock=)":
        "seam: test_obs_monitor pins the status file's wall timestamp",
    "parallel.runner.SweepRunner.__init__(retry=)":
        "seam: test_parallel's worker-death drills retry with no backoff",
    "parallel.supervise.SupervisedRunner.__init__(heartbeat_grace=)":
        "seam: test_parallel_supervise's stall kill fires after 0.2 s",
    "verify.fuzzer.minimise(still_fails=)":
        "seam: test_verify_fuzzer shrinks against a fake failure predicate",
    "core.optimizer.ScrubParameterOptimizer.optimize(prune=)":
        "oracle: prune=False is the exhaustive grid check_search_vs_grid "
        "and test_search compare the search with",
    "core.search.SuccessiveHalvingSearch.__init__(sizes=)":
        "oracle: check_search_vs_grid searches the grid's own size list",
    "sim.vector.make_simulation(start=)": _ITEM_1F,
    "sim.vector.make_simulation(telemetry=)": _ITEM_1F,
    "raid.array.RaidArray.__init__(strict=)": _ITEM_12,
    "raid.array.RaidArray.read(source=)": _ITEM_12,
    "raid.array.RaidArray.write(source=)": _ITEM_12,
    "raid.errors.ErrorMap.bad_count(disk=)": _ITEM_12,
    "raid.reliability.RebuildRiskModel.simulate(burst_repair=)": _ITEM_12,
}

#: Directories and files whose every identifier is a use, one tuple per
#: origin in the order the walk adds them: entry, examples, tests.
ORIGINS = (
    ("src/repro/cli", "src/repro/__main__.py",
     "bench", "benchmarks", "tools"),
    ("examples", "README.md"),
    ("tests",),
)

#: ``(table, title, allow-list)`` in the order ``make surface`` prints.
TABLES = (
    ("names", "top-level classes and functions", ALLOWED),
    ("methods", "methods", ALLOWED_METHODS),
    ("params", "defaulted parameters", ALLOWED_PARAMS),
)

_FENCE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Code:
    """What one body of code uses: its identifiers, its calls as
    ``(target, positional count, keywords, starred)`` and the targets it
    names outside call position.  A target is a tuple:

    * ``("name", f)`` -- ``f``; ``("attr", f)`` -- ``x.f``;
      ``("self", f)`` -- ``self.f``;
    * ``("member", C, f)`` -- ``C(...).f``;
    * ``("class", key, f)`` -- ``cls.f`` / ``cls(...)`` (``f`` is
      ``__init__``) in class ``key``; ``("super", bases, f)`` --
      ``super().f`` in a class with those base names;
      ``("init", C, "__init__")`` -- ``C.__init__``;
    * ``("loose",)`` -- any other callee (a subscript, a call's result).

    ``owner`` is the key of the class whose body this is, ``bases`` its
    base names; a class defined inside the code has its own.
    """

    __slots__ = ("identifiers", "calls", "values", "_owner")

    def __init__(self, trees: Iterable[ast.AST], owner: Optional[str] = None,
                 bases: Tuple[str, ...] = ()):
        self.identifiers: Set[str] = set()
        self.calls: List[Tuple[tuple, int, frozenset, bool]] = []
        self.values: Set[tuple] = set()
        self._owner = owner
        for tree in trees:
            self._scan(tree, bases)

    def _scan(self, tree: ast.AST, bases: Tuple[str, ...]) -> None:
        """One walk; a node is visited with the base names of its
        enclosing class, whether it sits in an annotation or type
        position (``hidden``, the whole subtree) and whether it is a
        callee or a receiver (``passive``, that node alone)."""
        stack = [(tree, bases, False, False)]
        while stack:
            node, bases, hidden, passive = stack.pop()
            kind = type(node)
            passives: Tuple[ast.AST, ...] = ()
            hides: Tuple[Optional[ast.AST], ...] = ()
            inner = bases
            if kind is ast.Name:
                self.identifiers.add(node.id)
                if not (hidden or passive) and type(node.ctx) is ast.Load:
                    self.values.add(self._target(node, bases))
                continue
            if kind is ast.Attribute:
                self.identifiers.add(node.attr)
                if not (hidden or passive) and type(node.ctx) is ast.Load:
                    self.values.add(self._target(node, bases))
                passives = (node.value,)
            elif kind is ast.Call:
                func = node.func
                self.calls.append((
                    self._target(func, bases), len(node.args),
                    frozenset(k.arg for k in node.keywords if k.arg),
                    any(type(a) is ast.Starred for a in node.args)
                    or any(k.arg is None for k in node.keywords),
                ))
                passives = (func,)
                if type(func) is ast.Name and func.id in (
                        "isinstance", "issubclass"):
                    hides = tuple(node.args[1:])
            elif kind is ast.arg:
                hides = (node.annotation,)
            elif kind in _FUNCTIONS:
                hides = (node.returns,)
            elif kind is ast.AnnAssign:
                hides = (node.annotation,)
            elif kind is ast.ExceptHandler:
                hides = (node.type,)
            elif kind is ast.ClassDef:
                hides = tuple(node.bases)
                inner = _base_names(node)
            for child in ast.iter_child_nodes(node):
                stack.append((
                    child, inner, hidden or child in hides, child in passives,
                ))

    def _target(self, node: ast.AST, bases: Tuple[str, ...]) -> tuple:
        """What the callee (or value) ``node`` names; ``bases`` are the
        base names of the enclosing class."""
        owner = self._owner
        if isinstance(node, ast.Name):
            if node.id == "cls" and owner:
                return ("class", owner, "__init__")
            return ("name", node.id)
        if isinstance(node, ast.Call) and owner and isinstance(
                node.func, ast.Name) and node.func.id == "type":
            return ("class", owner, "__init__")             # type(self)(...)
        if not isinstance(node, ast.Attribute):
            return ("loose",)
        base, name = node.value, node.attr
        if isinstance(base, ast.Name):
            if base.id == "self":
                return ("self", name)
            if base.id == "cls" and owner:
                return ("class", owner, name)
            if name == "__init__":
                return ("init", base.id, name)
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name):
            if base.func.id == "super":
                return ("super", bases, name)
            return ("member", base.func.id, name)
        return ("attr", name)


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    return tuple(
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))
    )


class _Def:
    """A function's parameters: ``positional`` in order, the names that
    have a default, and how many positions a call binds before the
    first argument (``self`` / ``cls``)."""

    __slots__ = ("positional", "names", "defaulted", "offset")

    def __init__(self, node: ast.AST, method: bool):
        args = node.args
        self.positional = [a.arg for a in args.posonlyargs + args.args]
        self.names = set(self.positional) | {a.arg for a in args.kwonlyargs}
        self.defaulted = self.positional[
            len(self.positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        self.offset = 1 if method and not static else 0


class _Tree:
    """The nodes, definitions and code of ``root/src/repro``."""

    def __init__(self, root: str):
        package = os.path.join(root, "src", "repro")
        entries = [os.path.join(root, entry) for entry in ORIGINS[0]]
        self.code: Dict[str, _Code] = {}         # node -> what it uses
        self.by_name: Dict[str, List[str]] = {}  # name -> top-level nodes
        self.methods: Dict[str, List[str]] = {}  # name -> method nodes
        self.members: Dict[str, List[str]] = {}  # class -> method nodes
        self.functions: Dict[str, List[str]] = {}  # name -> top-level defs
        self.classes: Dict[str, List[str]] = {}    # name -> classes
        self.bases: Dict[str, Tuple[str, ...]] = {}  # class -> base names
        self.defs: Dict[str, _Def] = {}          # def -> parameters
        self.home: Dict[str, str] = {}           # def -> node holding it
        seeds = []
        for folder, _, names in os.walk(package):
            for name in names:
                path = os.path.join(folder, name)
                if not name.endswith(".py") or any(
                    path == entry or path.startswith(entry + os.sep)
                    for entry in entries
                ):
                    continue
                module = os.path.relpath(path, package)[:-3].replace(
                    os.sep, ".")
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                for node in tree.body:
                    if isinstance(node, ast.ClassDef):
                        self._class(f"{module}.{node.name}", node)
                    elif isinstance(node, _FUNCTIONS):
                        key = f"{module}.{node.name}"
                        self.code[key] = _Code([node])
                        self.by_name.setdefault(node.name, []).append(key)
                        self.functions.setdefault(node.name, []).append(key)
                        self.defs[key] = _Def(node, method=False)
                        self.home[key] = key
                    else:
                        seeds.append(node)
        self.seeds = _Code(seeds)

    def _class(self, key: str, node: ast.ClassDef) -> None:
        name = key.rpartition(".")[2]
        self.by_name.setdefault(name, []).append(key)
        self.classes.setdefault(name, []).append(key)
        self.bases[key] = _base_names(node)
        own = []
        self.members[key] = []
        for item in node.body:
            if not isinstance(item, _FUNCTIONS):
                own.append(item)
                continue
            member = f"{key}.{item.name}"
            self.defs[member] = _Def(item, method=True)
            if _is_dunder(item.name):
                own.append(item)
                self.home[member] = key
                continue
            self.code[member] = _Code([item], key, self.bases[key])
            self.methods.setdefault(item.name, []).append(member)
            self.members[key].append(member)
            self.home[member] = member
        own.extend(node.bases + node.keywords + node.decorator_list)
        self.code[key] = _Code(own, key, self.bases[key])

    def lookup(self, key: str, name: str, seen: Optional[Set[str]] = None
               ) -> List[str]:
        """The method ``name`` of class ``key``: its own, or that of
        every nearest base under ``src/repro`` that defines it."""
        if f"{key}.{name}" in self.defs:
            return [f"{key}.{name}"]
        seen = set() if seen is None else seen
        seen.add(key)
        return [found for base in self.bases.get(key, ())
                for parent in self.classes.get(base, ()) if parent not in seen
                for found in self.lookup(parent, name, seen)]

    def targets(self, target: tuple) -> List[str]:
        """The definitions a call or a value ``target`` may reach."""
        kind, name = target[0], target[-1]
        if kind == "loose":
            return []
        if kind in ("class", "super", "init", "member"):
            owner = target[1]
            classes = ([owner] if kind == "class" else self.classes.get(
                owner, ()) if kind in ("init", "member") else [
                parent for base in owner for parent in self.classes.get(base, ())])
            found = [key for cls in classes for key in self.lookup(cls, name)]
            if found or kind != "member":
                return found
        direct = list(self.functions.get(name, ()))
        if kind != "name":
            direct.extend(self.methods.get(name, ()))
            if _is_dunder(name):
                direct.extend(key for key in self.defs
                              if key.rpartition(".")[2] == name)
        return direct + [init for cls in self.classes.get(name, ())
                         for init in self.lookup(cls, "__init__")]


class _Walk:
    """The nodes reached from a growing set of code, and the defaulted
    parameters that code passes."""

    def __init__(self, tree: _Tree):
        self.tree = tree
        self.seen: Set[str] = set()
        self.names: Set[str] = set()
        self.bodies: List[_Code] = []
        self.passed: Set[Tuple[str, str]] = set()

    def add(self, code: _Code) -> None:
        self.bodies.append(code)
        stack = list(code.identifiers)
        while stack:
            name = stack.pop()
            if name in self.names:
                continue
            self.names.add(name)
            for key in self.tree.by_name.get(name, ()):
                self._visit(key, stack)
            for key in self.tree.methods.get(name, ()):
                if key.rpartition(".")[0] in self.seen:
                    self._visit(key, stack)

    def _visit(self, key: str, stack: List[str]) -> None:
        if key in self.seen:
            return
        self.seen.add(key)
        self.bodies.append(self.tree.code[key])
        stack.extend(self.tree.code[key].identifiers)
        for member in self.tree.members.get(key, ()):
            if member.rpartition(".")[2] in self.names:
                self._visit(member, stack)

    def _pass(self, key: str, count: int, keywords: frozenset, starred: bool,
              start: Optional[int] = None) -> None:
        spec = self.tree.defs[key]
        if starred:
            self.passed.update((key, name) for name in spec.names)
            return
        start = spec.offset if start is None else start
        self.passed.update(
            (key, name) for name in spec.positional[start:start + count])
        self.passed.update((key, name) for name in keywords & spec.names)

    def settle(self) -> Set[Tuple[str, str]]:
        """``(definition, parameter)`` pairs the code reached so far
        passes."""
        for code in self.bodies:
            for target, *call in code.calls:
                # C.__init__(self, ...) binds self explicitly
                start = 0 if target[0] == "init" else None
                for key in self.tree.targets(target):
                    self._pass(key, *call, start=start)
            for target in code.values:
                for key in self.tree.targets(target):
                    self._pass(key, 0, frozenset(), True)
        self.bodies = []
        return set(self.passed)


def _classify(everything: Iterable[str], stages: List[Set[str]]
              ) -> Dict[str, List[str]]:
    everything = set(everything)
    return {
        "unreached": sorted(everything - stages[2]),
        "tests": sorted(everything & stages[2] - stages[1]),
        "examples": sorted(everything & stages[1] - stages[0]),
    }


def audit(root: str = ROOT) -> Dict[str, Dict[str, List[str]]]:
    """``{table: {"unreached": [...], "tests": [...], "examples": [...]}}``
    for the tables ``names``, ``methods`` and ``params``: what each holds
    by the last origin that has to be added before a walk reaches it
    (``unreached``: none does)."""
    tree = _Tree(root)
    walk = _Walk(tree)
    walk.add(tree.seeds)
    reached, passed = [], []
    for entries in ORIGINS:
        for entry in entries:
            for source in _sources(root, entry):
                walk.add(_Code([ast.parse(source)]))
        reached.append(set(walk.seen))
        passed.append(walk.settle())

    live = reached[1]
    public = [key for keys in tree.by_name.values() for key in keys
              if not key.rpartition(".")[2].startswith("_")]
    methods = [key for members in tree.members.values() for key in members
               if key.rpartition(".")[0] in live]
    params = {
        f"{key}({name}=)": (key, name)
        for key, spec in tree.defs.items()
        if tree.home[key] in live and (
            not _is_dunder(key.rpartition(".")[2])
            or key.endswith(".__init__"))
        for name in spec.defaulted
    }
    by_stage = [{row for row, pair in params.items() if pair in stage}
                for stage in passed]
    return {
        "names": _classify(public, reached),
        "methods": _classify(methods, reached),
        "params": _classify(params, by_stage),
    }


def main() -> int:
    found = audit()
    ok = True
    for table, title, allowed in TABLES:
        print(f"{title}:")
        for label, heading in (
            ("unreached", "used by nothing"),
            ("tests", "used only from tests/"),
            ("examples", "used only from examples/ and README (informational)"),
        ):
            print(f"  {heading}: {len(found[table][label])}")
            for key in found[table][label]:
                reason = allowed.get(key)
                print(f"    {key}" + (f"   allowed: {reason}" if reason else ""))
        dead = set(found[table]["unreached"]) | set(found[table]["tests"])
        for key in sorted(set(allowed) - dead):
            print(f"  allowed, but an entry point uses it: {key}")
        ok = ok and dead == set(allowed)
    print("surface [OK]" if ok else "surface [FAIL]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
