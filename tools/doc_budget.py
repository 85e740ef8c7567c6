"""Doc budget: DESIGN.md stays citable, current and bounded.

``make doc-budget`` runs this.  It reads DESIGN.md's numbered headings
(``## 6. ...``, ``### 6.1 ...``) and exits 1 when

* a DESIGN citation in ``src/``, ``tests/``, ``tools/``, the Makefile,
  README.md or the verify skill names a section DESIGN.md has no
  heading for.  A citation is ``DESIGN`` or ``DESIGN.md`` followed by
  ``§N``, ``§N.M``, ``section N`` or ``sections N and M`` (``N, M``
  too); a citation may wrap a ``#`` comment line;
* a DESIGN.md heading names a PR: a heading says what a layer is, and
  its history belongs in CHANGES.md;
* DESIGN.md is longer than :data:`LINE_BUDGET` lines.  Raise the budget
  only with a reason in CHANGES.md.

``tests/test_doc_budget.py`` plants each failure in a temp tree and
calls :func:`audit` for the same answer.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterator, List, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: The most lines DESIGN.md may have.
LINE_BUDGET = 1658

#: Where citations are looked for: directories (every ``.py`` and
#: ``.md`` file under them) and single files, relative to the root.
CITING = (
    "src", "tests", "tools", "Makefile", "README.md",
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
)

_SEP = r"[\s#]+"
_NUMBER = r"\d+(?:\.\d+)*"
_CITATION = re.compile(
    rf"DESIGN(?:\.md)?{_SEP}(?:§\s*|sections?{_SEP})"
    rf"({_NUMBER}(?:(?:,|{_SEP}and){_SEP}(?:§\s*)?{_NUMBER})*)"
)
_HEADING = re.compile(r"^#+ .*$", re.M)
_SECTION = re.compile(rf"^#+ ({_NUMBER})\.? ")
_PR = re.compile(r"\bPRs? ?#?\d")


def _citing_files(root: str) -> Iterator[str]:
    """Every file :data:`CITING` names that exists, sorted per entry."""
    for entry in CITING:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            yield from sorted(
                os.path.join(folder, name)
                for folder, _, names in os.walk(path) for name in names
                if name.endswith((".py", ".md"))
            )


def citations(text: str) -> Iterator[Tuple[int, str]]:
    """``(line, section)`` for every section a DESIGN citation in
    ``text`` names."""
    for match in _CITATION.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        for section in re.findall(_NUMBER, match.group(1)):
            yield line, section


def audit(root: str = ROOT) -> List[str]:
    """One line per problem; empty when the docs are within budget."""
    with open(os.path.join(root, "DESIGN.md")) as handle:
        design = handle.read()
    problems = []
    sections = set()
    for match in _HEADING.finditer(design):
        heading = match.group(0)
        numbered = _SECTION.match(heading)
        if numbered:
            sections.add(numbered.group(1))
        if _PR.search(heading):
            line = design.count("\n", 0, match.start()) + 1
            problems.append(f"DESIGN.md:{line}: heading names a PR: {heading}")
    lines = design.count("\n")
    if lines > LINE_BUDGET:
        problems.append(
            f"DESIGN.md: {lines} lines, over the budget of {LINE_BUDGET}"
        )
    for path in _citing_files(root):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for line, section in citations(text):
            if section not in sections:
                name = os.path.relpath(path, root)
                problems.append(
                    f"{name}:{line}: cites DESIGN §{section}, which has no heading"
                )
    return problems


def main() -> int:
    problems = audit()
    for problem in problems:
        print(problem)
    print("doc budget [FAIL]" if problems else "doc budget [OK]")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
