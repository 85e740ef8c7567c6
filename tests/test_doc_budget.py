"""The doc budget: every DESIGN citation has a heading, no heading names
a PR, and DESIGN.md stays within its line budget.

``tools/doc_budget.py`` is ``make doc-budget``.  The planted cases run
on a temp tree holding a copy of DESIGN.md, so the check is seen to fail
on a stale citation, a PR-named heading and one line over budget.  The
planted citations are assembled at run time: written out here, they
would be citations of this file.
"""

import pathlib
import shutil

import pytest

from tools.doc_budget import LINE_BUDGET, audit, citations

REPO = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "DESIGN"


def test_the_live_tree_is_within_budget():
    assert audit() == []


@pytest.mark.parametrize("text, sections", [
    (f"see {DESIGN} §17", ["17"]),
    (f"({DESIGN}.md §6.1)", ["6.1"]),
    (f"the contract ({DESIGN} section 19):", ["19"]),
    (f"left behind ({DESIGN} sections 6.1 and\n# 18): twelve", ["6.1", "18"]),
    (f"{DESIGN} sections 6.1, 9 and 18.", ["6.1", "9", "18"]),
    (f"{DESIGN}.md has the story", []),
])
def test_every_citation_form_in_use_is_read(text, sections):
    assert [section for _, section in citations(text)] == sections


@pytest.fixture
def tree(tmp_path):
    """A temp root with DESIGN.md and one live citation in each of
    ``src/`` and the Makefile."""
    shutil.copy(REPO / "DESIGN.md", tmp_path / "DESIGN.md")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text(f'"""See {DESIGN} §6.1."""\n')
    (tmp_path / "Makefile").write_text(
        f"# What it leaves ({DESIGN} sections 6.1 and\n# 18): all.\n"
    )
    assert audit(str(tmp_path)) == []
    return tmp_path


def test_a_stale_citation_fails(tree):
    (tree / "tools").mkdir()
    (tree / "tools" / "check.py").write_text(
        f"# first line\n# the rule ({DESIGN} section 99)\n"
    )
    assert audit(str(tree)) == [
        f"tools/check.py:2: cites {DESIGN} §99, which has no heading",
    ]


def test_a_stale_citation_wrapped_in_a_comment_fails(tree):
    (tree / "Makefile").write_text(
        f"# What it leaves ({DESIGN} sections 6.1 and\n# 6.9): all.\n"
    )
    assert audit(str(tree)) == [
        f"Makefile:1: cites {DESIGN} §6.9, which has no heading",
    ]


def test_a_heading_that_names_a_pr_fails(tree):
    design = tree / "DESIGN.md"
    text = design.read_text()
    heading = "## 17. The import contract: no scipy on any import path"
    assert heading in text
    design.write_text(text.replace(heading, heading + " (PR 18)"))
    problems = audit(str(tree))
    assert len(problems) == 1
    assert "heading names a PR" in problems[0]


def test_one_line_over_budget_fails(tree):
    design = tree / "DESIGN.md"
    text = design.read_text()
    padding = "\n" * (LINE_BUDGET - text.count("\n"))
    design.write_text(text + padding)
    assert audit(str(tree)) == []
    design.write_text(text + padding + "\n")
    assert audit(str(tree)) == [
        f"DESIGN.md: {LINE_BUDGET + 1} lines, over the budget of {LINE_BUDGET}",
    ]
