"""Checker-of-the-checker: every planted bug must be caught.

These are the ISSUE's mutation acceptance criteria: planting any
single seeded bug (skip a region, drop a completion, double-remap,
backdate a clock, drift the replay cursor) must make the invariant
checker or the differential oracle fail with an actionable report —
and unplanting it must leave the stack clean.
"""

import pytest

from repro.verify import MUTATIONS, run_selftest
from repro.verify.selftest import SelfTestResult


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in run_selftest()}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught(name, results):
    result = results[name]
    assert isinstance(result, SelfTestResult)
    assert result.caught, (
        f"planted bug {name!r} ({MUTATIONS[name].description}) went "
        f"undetected: {result.detail}"
    )
    assert result.clean_after, (
        f"mutation {name!r} leaked its patch: {result.detail}"
    )
    # The report is actionable: it names the violated invariant or the
    # diverged axis, not just "assertion failed".
    assert "invariant" in result.detail or "differential" in result.detail


def test_registry_covers_both_pillars():
    from repro.verify import DifferentialMismatch, InvariantViolation

    expectations = {exc for m in MUTATIONS.values() for exc in m.expect}
    assert InvariantViolation in expectations
    assert DifferentialMismatch in expectations
    assert len(MUTATIONS) >= 5


#: The law that catches each planted invariant bug.  A check moved to
#: another hook or to the end of the run must still catch its bug by
#: the same law, not by accident through another.
CAUGHT_BY = {
    "skip-last-extent": "scrub-coverage",
    "skip-last-region": "scrub-coverage",
    "drop-completion": "queue-accounting",
    "double-remap": "fault-lifecycle",
    "backdate-clock": "clock-monotonicity",
    "cursor-drift": "replay-schedule",
}


@pytest.mark.parametrize("name", sorted(CAUGHT_BY))
def test_each_planted_bug_is_caught_by_its_own_law(name, results):
    # ``detail`` is ``str(InvariantViolation)``: its report's first line
    # names the violated invariant.
    first_line = results[name].detail.splitlines()[0]
    assert first_line.startswith(f"invariant {CAUGHT_BY[name]!r} violated"), (
        first_line
    )
