"""Correctness harness: invariants, differential oracle, config fuzzer.

The stack has pairs of code paths that promise bit-identical behaviour
and a web of conservation laws the simulation must respect.  This
package checks both, three ways:

* :mod:`repro.verify.invariants` — :class:`InvariantSink`, a telemetry
  sink that validates conservation laws *live* during any run and
  raises :class:`InvariantViolation` with the offending event window;
* :mod:`repro.verify.differential` — :func:`run_axes` /
  :func:`check_parallel`, flipping one implementation switch at a time
  (no sink vs a live invariant checker, telemetry on vs off, serial vs
  forked workers, campaign monitor on vs off, fleet kernel vs its
  reference ledger) and requiring
  bit-identical outcomes;
* :mod:`repro.verify.fuzzer` — :func:`fuzz`, deterministic random
  configurations driven through both of the above, with failures
  minimised into copy-pasteable repro snippets.

:mod:`repro.verify.selftest` plants seeded bugs and asserts the
harness catches each one.  CLI entry point: ``repro verify``.

PR 7 adds :mod:`repro.verify.fleet`: conservation laws for fleet
campaigns — drive-state accounting across OK/degraded/rebuilding/lost,
shard-range conservation, and checkpoint-digest consistency for the
campaign journal — and holds the fleet shard kernel's reference ledger
(``reference_shard_task``), which the ``fleet-kernel`` axis compares
the kernel with.
"""

from repro.verify.differential import (
    AXES,
    DifferentialMismatch,
    check_fleet_kernel,
    check_monitor,
    check_parallel,
    outcome_signature,
    run_axes,
)
from repro.verify.fleet import (
    check_campaign_journal,
    check_fleet_conservation,
    check_shard_result,
)
from repro.verify.fuzzer import FuzzReport, fuzz, generate_configs, minimise
from repro.verify.invariants import (
    InvariantSink,
    InvariantViolation,
    check_error_log,
    check_media_faults,
)
from repro.verify.scenario import FAMILIES, run_scenario
from repro.verify.search import check_search_vs_grid
from repro.verify.selftest import MUTATIONS, run_selftest

__all__ = [
    "AXES",
    "FAMILIES",
    "MUTATIONS",
    "DifferentialMismatch",
    "FuzzReport",
    "InvariantSink",
    "InvariantViolation",
    "check_error_log",
    "check_campaign_journal",
    "check_fleet_conservation",
    "check_fleet_kernel",
    "check_media_faults",
    "check_monitor",
    "check_parallel",
    "check_search_vs_grid",
    "check_shard_result",
    "fuzz",
    "generate_configs",
    "minimise",
    "outcome_signature",
    "run_axes",
    "run_scenario",
    "run_selftest",
]
