"""Tests for the runtime invariant checker (repro.verify.invariants)."""

import pytest

from repro.faults.log import ErrorLog
from repro.verify import (
    InvariantSink,
    InvariantViolation,
    check_error_log,
    check_media_faults,
    run_scenario,
)


class _FakeCommand:
    def __init__(self, lbn, sectors, opcode="read"):
        self.lbn = lbn
        self.sectors = sectors
        self.opcode = type("Op", (), {"value": opcode})()


class _FakeRequest:
    def __init__(self, seq, lbn=0, sectors=8, opcode="read", source="fg"):
        self.seq = seq
        self.command = _FakeCommand(lbn, sectors, opcode)
        self.source = source
        self.submit_time = None
        self.complete_time = None

    def __repr__(self):
        return f"<req #{self.seq}>"


class TestLifecycle:
    def _sink(self):
        return InvariantSink(total_sectors=1024)

    def test_clean_lifecycle_passes(self):
        sink = self._sink()
        r = _FakeRequest(1)
        sink.request_queued(0.0, r)
        sink.request_dispatched(0.1, r)
        sink.request_completed(0.2, r)
        sink.finish()
        assert sink.queued_total == sink.completed_total == 1

    def test_queued_twice_rejected(self):
        sink = self._sink()
        r = _FakeRequest(1)
        sink.request_queued(0.0, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.request_queued(0.1, r)
        assert exc.value.invariant == "request-lifecycle"
        assert "queued twice" in exc.value.message

    def test_dispatch_without_queue_rejected(self):
        sink = self._sink()
        with pytest.raises(InvariantViolation) as exc:
            sink.request_dispatched(0.0, _FakeRequest(7))
        assert "never queued" in exc.value.message

    def test_double_occupancy_rejected(self):
        sink = self._sink()
        a, b = _FakeRequest(1), _FakeRequest(2)
        sink.request_queued(0.0, a)
        sink.request_queued(0.0, b)
        sink.request_dispatched(0.1, a)
        with pytest.raises(InvariantViolation) as exc:
            sink.request_dispatched(0.2, b)
        assert exc.value.invariant == "queue-accounting"

    def test_completed_twice_rejected(self):
        sink = self._sink()
        r = _FakeRequest(1)
        sink.request_queued(0.0, r)
        sink.request_dispatched(0.1, r)
        sink.request_completed(0.2, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.request_completed(0.3, r)
        assert "completed twice" in exc.value.message

    def test_unbalanced_finish_rejected(self):
        sink = self._sink()
        a, b = _FakeRequest(1), _FakeRequest(2)
        for r in (a, b):
            sink.request_queued(0.0, r)
        sink.request_dispatched(0.1, a)
        sink.request_completed(0.2, a)
        # b vanished from the dispatcher: still waiting, so finish is
        # legal — but a dropped *completion* is not.
        sink.finish()
        sink.request_dispatched(0.3, b)
        # b is now in flight; a single in-flight request is legal.
        sink.finish()

    def test_clock_backwards_rejected(self):
        sink = self._sink()
        sink.request_queued(1.0, _FakeRequest(1))
        with pytest.raises(InvariantViolation) as exc:
            sink.request_queued(0.5, _FakeRequest(2))
        assert exc.value.invariant == "clock-monotonicity"

    def test_lbn_bounds_rejected(self):
        sink = self._sink()
        with pytest.raises(InvariantViolation) as exc:
            sink.request_queued(0.0, _FakeRequest(1, lbn=1020, sectors=16))
        assert exc.value.invariant == "lbn-bounds"


class TestScrubCoverage:
    def test_full_coverage_passes(self):
        sink = InvariantSink(total_sectors=256)
        sink.scrub_pass_started(0.0, "scrub", 0)
        for i, lbn in enumerate(range(0, 256, 64)):
            now = 0.1 + i * 0.1
            r = _FakeRequest(lbn, lbn=lbn, sectors=64, opcode="verify",
                             source="scrub")
            sink.request_queued(now, r)
            sink.request_dispatched(now, r)
            sink.request_completed(now + 0.05, r)
        sink.scrub_pass_completed(1.0, "scrub", 0, 256 * 512)

    def test_gap_rejected_with_gap_list(self):
        sink = InvariantSink(total_sectors=256)
        sink.scrub_pass_started(0.0, "scrub", 0)
        for i, lbn in enumerate((0, 128, 192)):  # [64, 128) never verified
            now = 0.1 + i * 0.1
            r = _FakeRequest(lbn, lbn=lbn, sectors=64, opcode="verify",
                             source="scrub")
            sink.request_queued(now, r)
            sink.request_dispatched(now, r)
            sink.request_completed(now + 0.05, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.scrub_pass_completed(1.0, "scrub", 0, 192 * 512)
        assert exc.value.invariant == "scrub-coverage"
        assert "(64, 128)" in exc.value.message

    def test_progress_fraction_bounds(self):
        sink = InvariantSink(total_sectors=256)
        sink.scrub_progress(0.0, "scrub", 0.5)
        with pytest.raises(InvariantViolation):
            sink.scrub_progress(0.1, "scrub", 1.25)


class TestFaultLifecycle:
    def test_double_remap_rejected(self):
        sink = InvariantSink(total_sectors=1024)
        sink.fault_event(0.0, "remap", 17)
        with pytest.raises(InvariantViolation) as exc:
            sink.fault_event(0.1, "remap", 17)
        assert exc.value.invariant == "fault-lifecycle"

    def test_verify_after_remap_needs_remap(self):
        sink = InvariantSink(total_sectors=1024)
        with pytest.raises(InvariantViolation):
            sink.fault_event(0.0, "verify_after_remap", 17)
        sink = InvariantSink(total_sectors=1024)
        sink.fault_event(0.0, "remap", 17)
        sink.fault_event(0.1, "verify_after_remap", 17)  # legal order

    def test_fault_lbn_bounds(self):
        sink = InvariantSink(total_sectors=64)
        with pytest.raises(InvariantViolation) as exc:
            sink.fault_event(0.0, "remap", 64)
        assert exc.value.invariant == "lbn-bounds"


class TestViolationReport:
    def test_report_carries_window(self):
        sink = InvariantSink(total_sectors=1024)
        for i in range(40):
            sink.request_queued(i * 0.01, _FakeRequest(i))
        with pytest.raises(InvariantViolation) as exc:
            sink.request_queued(0.0, _FakeRequest(99))
        violation = exc.value
        assert violation.time == 0.0
        assert 0 < len(violation.window) <= 32
        text = violation.report()
        assert "clock-monotonicity" in text
        assert "request_queued" in text
        assert str(violation) == text


class TestErrorLogChecks:
    def test_clean_log_passes(self):
        log = ErrorLog()
        log.record_injected(0.0, 5)
        log.record_media_error(1.0, 5, source="scrub", opcode="verify")
        log.record_reallocated(1.1, 5, ok=True)
        log.record_verify_after_remap(1.2, 5, ok=True)
        check_error_log(log)

    def test_detection_before_onset_rejected(self):
        log = ErrorLog()
        log.record_injected(2.0, 5)
        log.record_media_error(1.0, 5, source="scrub", opcode="verify")
        with pytest.raises(InvariantViolation) as exc:
            check_error_log(log)
        assert "before its onset" in exc.value.message

    def test_double_reallocation_rejected(self):
        log = ErrorLog()
        log.record_injected(0.0, 5)
        log.record_media_error(1.0, 5, source="scrub", opcode="verify")
        log.record_reallocated(1.1, 5, ok=True)
        log.record_reallocated(1.2, 5, ok=True)
        with pytest.raises(InvariantViolation) as exc:
            check_error_log(log)
        assert "reallocated twice" in exc.value.message


class TestEndToEnd:
    """The sink rides along a real scenario without firing."""

    @pytest.mark.parametrize("algorithm", ["sequential", "staggered", "waiting"])
    def test_clean_scenarios_validate(self, algorithm):
        outcome = run_scenario(
            algorithm=algorithm,
            horizon=0.2,
            telemetry="invariants",
        )
        assert outcome["completed"] > 0

    def test_fault_injected_scenario_validates(self):
        outcome = run_scenario(
            family="fault-injected",
            model="bernoulli",
            cache_enabled=False,
            horizon=0.25,
            telemetry="invariants",
        )
        assert outcome["faults"]["injected"] > 0
        check_media_faults_args = outcome["faults"]
        assert check_media_faults_args["remapped"] >= 0
