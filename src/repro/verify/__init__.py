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

from repro import _lazy

_EXPORTS = {
    "AXES": ".differential",
    "FAMILIES": ".scenario",
    "MUTATIONS": ".selftest",
    "DifferentialMismatch": ".differential",
    "FuzzReport": ".fuzzer",
    "InvariantSink": ".invariants",
    "InvariantViolation": ".invariants",
    "check_error_log": ".invariants",
    "check_campaign_journal": ".fleet",
    "check_fleet_conservation": ".fleet",
    "check_fleet_kernel": ".differential",
    "check_media_faults": ".invariants",
    "check_monitor": ".differential",
    "check_parallel": ".differential",
    "check_search_vs_grid": ".search",
    "check_shard_result": ".fleet",
    "fuzz": ".fuzzer",
    "generate_configs": ".fuzzer",
    "minimise": ".fuzzer",
    "outcome_signature": ".differential",
    "run_axes": ".differential",
    "run_scenario": ".scenario",
    "run_selftest": ".selftest",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
