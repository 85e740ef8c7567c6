"""Checker-of-the-checker: seeded bugs the harness must catch.

A verification layer that never fires is indistinguishable from one
that doesn't work.  This module keeps a registry of :data:`MUTATIONS`
— context managers that monkeypatch a *single, realistic* bug into the
stack — together with the scenario that exposes each one.  The
self-test plants every bug in turn and asserts the invariant checker
or the differential oracle rejects the run; it then re-runs the clean
scenario to prove the patch fully reverted.

The planted bugs (one per conservation law / differential axis):

``skip-last-extent``
    :class:`SequentialScrub` silently drops the tail extent of every
    pass — the classic off-by-one a refactor of the pass loop would
    introduce.  Caught by the *scrub-coverage* invariant.
``skip-last-region``
    :class:`StaggeredScrub` never visits its final region.  Same
    invariant, staggered order.
``drop-completion``
    The block device loses one request-completed notification — a
    dropped event in the lifecycle stream.  Caught by *queue
    accounting* (the single-server drive appears doubly occupied).
``double-remap``
    Remediation reallocates the same sector twice, over-drawing the
    spare pool.  Caught by the *fault-lifecycle* state machine.
``backdate-clock``
    A component reports a stale timestamp.  Caught by *clock
    monotonicity*.
``cursor-drift``
    The batched replay cursor drifts its due times by one part in
    10^12 — far below anything a summary statistic would notice.
    Caught by the differential oracle's *feed* axis.
``fleet-seed-words``
    The fleet's batch seeding swaps the 32-bit halves of every PCG64
    state word, so each group draws from a generator that is not
    ``default_rng(group_seed(...))``'s.  Caught by the *fleet-kernel*
    axis, whose reference loop seeds through numpy itself.

Used by ``tests/test_verify_selftest.py`` and ``repro verify
--self-test``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.verify.differential import DifferentialMismatch, run_axes
from repro.verify.invariants import InvariantViolation
from repro.verify.scenario import run_scenario

__all__ = ["MUTATIONS", "Mutation", "SelfTestResult", "run_selftest"]

#: Scenario each mutation is planted into (chosen to reach the buggy
#: code quickly: short horizon, tiny drive, dense fault plan).
#: The Cello news disk's sparse load leaves the scrubber room to
#: complete full passes inside the default horizon, which the coverage
#: mutations need (a pass that never completes is never coverage-checked).
_SEQ = {
    "family": "synthetic",
    "algorithm": "sequential",
    "trace_name": "HPc6t8d0",
    "rate_scale": 0.5,
    "seed": 11,
}
_STAG = {**_SEQ, "algorithm": "staggered", "regions": 6}
_FAULTY = {
    "family": "fault-injected",
    "algorithm": "sequential",
    "trace_name": "HPc6t8d0",
    "rate_scale": 0.5,
    "seed": 11,
    "model": "bernoulli",
    "model_params": {"per_sector_probability": 0.002},
    "cache_enabled": False,
}


@contextmanager
def _patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def _skip_last_extent():
    from repro.core.sequential import SequentialScrub

    original = SequentialScrub.next_extent

    def patched(self):
        if self._next < self._total and self._total - self._next <= self._step:
            self._next = self._total  # drop the tail extent
            return None
        return original(self)

    with _patched(SequentialScrub, "next_extent", patched):
        yield


@contextmanager
def _skip_last_region():
    from repro.core.staggered import StaggeredScrub

    original = StaggeredScrub.next_extent

    def patched(self):
        if self._region == self.regions - 1:
            self._region += 1  # never visit the final region
        return original(self)

    with _patched(StaggeredScrub, "next_extent", patched):
        yield


class _LossySink:
    """Forwarding sink proxy that corrupts the event stream.

    ``drop_completed_at``: swallow the Nth ``request_completed``.
    ``backdate_at``: report the Nth ``request_queued`` 50 ms early.
    Models a component losing or mis-timestamping a notification; the
    simulation itself is untouched.
    """

    def __init__(self, inner, drop_completed_at=None, backdate_at=None):
        self._inner = inner
        self._drop = drop_completed_at
        self._backdate = backdate_at
        self._completed = 0
        self._queued = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def request_completed(self, now, request):
        self._completed += 1
        if self._completed == self._drop:
            return
        self._inner.request_completed(now, request)

    def request_queued(self, now, request):
        self._queued += 1
        if self._queued == self._backdate:
            now = now - 0.05
        self._inner.request_queued(now, request)


def _lossy_device(**proxy_kwargs):
    """Patch ``BlockDevice`` to wrap its sink in a :class:`_LossySink`."""
    from repro.sched.device import BlockDevice

    original = BlockDevice.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.telemetry is not None:
            self.telemetry = _LossySink(self.telemetry, **proxy_kwargs)

    return _patched(BlockDevice, "__init__", patched)


@contextmanager
def _drop_completion():
    with _lossy_device(drop_completed_at=5):
        yield


@contextmanager
def _backdate_clock():
    with _lossy_device(backdate_at=8):
        yield


@contextmanager
def _double_remap():
    from repro.faults import remediation

    original = remediation._remap_sector

    def patched(sim, device, lbn, policy, submit_verify, stats):
        yield from original(sim, device, lbn, policy, submit_verify, stats)
        # A second reallocation of the same (now healthy) sector: burns
        # a spare and double-records the remap.
        faults = device.drive.faults
        if faults is not None:
            faults.reallocate(lbn, sim.now)
            sink = sim.telemetry
            if sink is not None:
                sink.fault_event(sim.now, "remap", lbn)

    with _patched(remediation, "_remap_sector", patched):
        yield


@contextmanager
def _cursor_drift():
    from repro.workloads import replay

    original = replay._ReplayCursor._convert

    def patched(self, chunk, a, b):
        original(self, chunk, a, b)
        self._dues = [d + 5e-10 for d in self._dues]

    with _patched(replay._ReplayCursor, "_convert", patched):
        yield


@contextmanager
def _swap_seed_words():
    from repro.fleet import spec

    original = spec._seed_words

    def patched(seeds):
        words = original(seeds)
        return words >> 32 | words << 32

    with _patched(spec, "_seed_words", patched):
        yield


def _check_invariants(params: dict) -> None:
    run_scenario(**params, telemetry="invariants")


def _check_feed_axis(params: dict) -> None:
    run_axes(params, axes=("feed",))


def _check_fleet_kernel_axis(params: dict) -> None:
    run_axes(params, axes=("fleet-kernel",))


class Mutation(NamedTuple):
    """One planted bug: how to plant it, how it should be caught."""

    description: str
    patch: Callable
    scenario: dict
    check: Callable[[dict], None]
    expect: Tuple[type, ...]


MUTATIONS: Dict[str, Mutation] = {
    "skip-last-extent": Mutation(
        "sequential pass drops its final extent",
        _skip_last_extent,
        _SEQ,
        _check_invariants,
        (InvariantViolation,),
    ),
    "skip-last-region": Mutation(
        "staggered pass never visits its last region",
        _skip_last_region,
        _STAG,
        _check_invariants,
        (InvariantViolation,),
    ),
    "drop-completion": Mutation(
        "one request-completed notification is lost",
        _drop_completion,
        _SEQ,
        _check_invariants,
        (InvariantViolation,),
    ),
    "double-remap": Mutation(
        "remediation reallocates the same sector twice",
        _double_remap,
        _FAULTY,
        _check_invariants,
        (InvariantViolation,),
    ),
    "backdate-clock": Mutation(
        "a hook reports a stale timestamp",
        _backdate_clock,
        _SEQ,
        _check_invariants,
        (InvariantViolation,),
    ),
    "cursor-drift": Mutation(
        "batched replay cursor drifts due times by 0.5 ns",
        _cursor_drift,
        # The dense TPC trace: hundreds of replayed arrivals for the
        # drift to land on (the sparse Cello trace has too few).
        {"family": "synthetic", "algorithm": "sequential", "seed": 11},
        _check_feed_axis,
        (DifferentialMismatch,),
    ),
    "fleet-seed-words": Mutation(
        "batch seeding swaps the halves of each PCG64 state word",
        _swap_seed_words,
        # The axis runs its own small campaign; only the seed is read.
        {"seed": 11},
        _check_fleet_kernel_axis,
        (DifferentialMismatch,),
    ),
}


class SelfTestResult(NamedTuple):
    """Outcome for one mutation."""

    name: str
    caught: bool
    #: The violation/mismatch report (or why nothing fired).
    detail: str
    #: The clean scenario still passes after the patch reverted.
    clean_after: bool


def run_selftest() -> List[SelfTestResult]:
    """Plant each mutation; the harness must reject every one.

    Returns one :class:`SelfTestResult` per mutation.  ``caught`` is
    ``True`` only when the expected exception type fired *and* the
    clean scenario passes again afterwards (no patch leakage).
    """
    results = []
    for name, mutation in MUTATIONS.items():
        caught = False
        detail = "no violation raised — the planted bug went undetected"
        with mutation.patch():
            try:
                mutation.check(mutation.scenario)
            except mutation.expect as exc:
                caught = True
                detail = str(exc)
            except Exception as exc:  # wrong failure mode: report, not crash
                detail = f"unexpected {type(exc).__name__}: {exc}"
        clean_after = True
        try:
            mutation.check(mutation.scenario)
        except Exception as exc:
            clean_after = False
            detail += f"\n  clean re-run failed after unpatch: {exc}"
        results.append(
            SelfTestResult(
                name=name, caught=caught, detail=detail, clean_after=clean_after
            )
        )
    return results
