"""Tests for the runtime invariant checker (repro.verify.invariants)."""

import numpy as np
import pytest

from repro.disk.commands import DiskCommand
from repro.faults.log import ErrorLog
from repro.sched.device import RequestLog
from repro.sched.request import IORequest, PriorityClass
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
        self.dispatch_time = None
        self.complete_time = None

    def __repr__(self):
        return f"<req #{self.seq}>"


def _logged_sink(total_sectors=1024):
    """A sink holding a request log, as a device hands it one."""
    sink = InvariantSink(total_sectors=total_sectors)
    sink.attach_log(RequestLog())
    return sink


def _queue(sink, now, request):
    request.submit_time = now
    sink.request_queued(now, request)


def _dispatch(sink, now, request):
    request.dispatch_time = now
    sink.request_dispatched(now, request)


def _complete(sink, now, request):
    """What the device does: stamp the request, log it, then tell the sink."""
    request.complete_time = now
    sink.log.add(request)
    sink.request_completed(now, request)


def _serve(sink, now, request, service=0.05):
    _queue(sink, now, request)
    _dispatch(sink, now, request)
    _complete(sink, now + service, request)


class TestLifecycle:
    def _sink(self):
        return _logged_sink()

    def test_clean_lifecycle_passes(self):
        sink = self._sink()
        r = _FakeRequest(1)
        _queue(sink, 0.0, r)
        _dispatch(sink, 0.1, r)
        _complete(sink, 0.2, r)
        sink.finish()
        assert sink.queued_total == sink.completed_total == len(sink.log) == 1

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
        assert "dispatched but not queued" in exc.value.message

    def test_double_occupancy_rejected(self):
        sink = self._sink()
        a, b = _FakeRequest(1), _FakeRequest(2)
        sink.request_queued(0.0, a)
        sink.request_queued(0.0, b)
        sink.request_dispatched(0.1, a)
        with pytest.raises(InvariantViolation) as exc:
            sink.request_dispatched(0.2, b)
        assert exc.value.invariant == "queue-accounting"
        assert "joins #[1]" in exc.value.message

    def test_completed_twice_rejected(self):
        # Heard twice: the second completion finds nothing on the drive.
        sink = self._sink()
        r = _FakeRequest(1)
        _serve(sink, 0.0, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.request_completed(0.3, r)
        assert "completed but not on the drive" in exc.value.message
        # Served twice end to end: the log holds its seq twice.
        sink = self._sink()
        _serve(sink, 0.0, r)
        _serve(sink, 1.0, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.finish()
        assert exc.value.invariant == "request-lifecycle"
        assert "request #1 logged but completed twice" in exc.value.message

    def test_unbalanced_finish_rejected(self):
        sink = self._sink()
        a, b = _FakeRequest(1), _FakeRequest(2)
        for r in (a, b):
            _queue(sink, 0.0, r)
        _dispatch(sink, 0.1, a)
        _complete(sink, 0.2, a)
        # b vanished from the dispatcher: still waiting, so finish is
        # legal — but a dropped *completion* is not.
        sink.finish()
        _dispatch(sink, 0.3, b)
        # b is now in flight; a single in-flight request is legal.
        sink.finish()
        # b completes into the log, but the sink never hears it.
        b.complete_time = 0.4
        sink.log.add(b)
        with pytest.raises(InvariantViolation) as exc:
            sink.finish()
        assert exc.value.invariant == "queue-accounting"
        assert "holds 2 requests but 1 completions" in exc.value.message

    def test_the_log_pass_checks_each_request(self):
        sink = self._sink()
        r = _FakeRequest(1)
        _serve(sink, 1.0, r)
        r.dispatch_time = 0.5  # before its submit at 1.0
        with pytest.raises(InvariantViolation) as exc:
            sink.finish()
        assert "request #1 logged but out of order" in exc.value.message
        # A logged request queued again and never dispatched.
        sink = self._sink()
        _serve(sink, 0.0, r)
        _queue(sink, 1.0, r)
        with pytest.raises(InvariantViolation) as exc:
            sink.finish()
        assert "request #1 logged but still queued" in exc.value.message

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


class TestTheLog:
    """The sink reads the device's log and keeps none of its own."""

    def test_a_capped_log_is_refused(self):
        with pytest.raises(ValueError, match="max_records=8"):
            InvariantSink().attach_log(RequestLog(max_records=8))
        from repro.disk import Drive, hitachi_ultrastar_15k450
        from repro.sched import BlockDevice, NoopScheduler
        from repro.sim import Simulation

        sim = Simulation(telemetry=InvariantSink())
        drive = Drive(hitachi_ultrastar_15k450())
        with pytest.raises(ValueError, match="whole request log"):
            BlockDevice(sim, drive, NoopScheduler(), max_log_records=8)

    def test_a_second_device_is_refused(self):
        from repro.disk import Drive, hitachi_ultrastar_15k450
        from repro.sched import BlockDevice, NoopScheduler
        from repro.sim import Simulation

        sim = Simulation(telemetry=InvariantSink())
        spec = hitachi_ultrastar_15k450()
        BlockDevice(sim, Drive(spec), NoopScheduler())
        with pytest.raises(ValueError, match="one device's request log"):
            BlockDevice(sim, Drive(spec), NoopScheduler())

    def test_completions_without_a_log_are_refused(self):
        sink = InvariantSink(total_sectors=1024)
        r = _FakeRequest(1)
        sink.request_queued(0.0, r)
        sink.request_dispatched(0.1, r)
        sink.request_completed(0.2, r)
        with pytest.raises(RuntimeError, match="no request log"):
            sink.finish()

    def test_no_attribute_grows_with_completed_requests(self):
        sink = _logged_sink()

        def sizes():
            return {
                name: len(value) for name, value in vars(sink).items()
                if hasattr(value, "__len__") and name != "log"
            }

        for seq in range(50):
            _serve(sink, seq * 0.1, _FakeRequest(seq))
        before = sizes()
        for seq in range(50, 500):
            _serve(sink, seq * 0.1, _FakeRequest(seq))
        assert sizes() == before
        sink.finish()
        assert len(sink.log) == sink.completed_total == 500


class TestScrubCoverage:
    def _verify(self, sink, now, lbn, source="scrub"):
        _serve(sink, now, _FakeRequest(
            int(now * 100), lbn=lbn, sectors=64, opcode="verify", source=source
        ))

    def test_full_coverage_passes(self):
        sink = _logged_sink(total_sectors=256)
        sink.scrub_pass_started(0.0, "scrub", 0)
        for i, lbn in enumerate(range(0, 256, 64)):
            self._verify(sink, 0.1 + i * 0.1, lbn)
        sink.scrub_pass_completed(1.0, "scrub", 0, 256 * 512)

    def test_gap_rejected_with_gap_list(self):
        sink = _logged_sink(total_sectors=256)
        sink.scrub_pass_started(0.0, "scrub", 0)
        for i, lbn in enumerate((0, 128, 192)):  # [64, 128) never verified
            self._verify(sink, 0.1 + i * 0.1, lbn)
        with pytest.raises(InvariantViolation) as exc:
            sink.scrub_pass_completed(1.0, "scrub", 0, 192 * 512)
        assert exc.value.invariant == "scrub-coverage"
        assert "(64, 128)" in exc.value.message

    def test_a_pass_reads_only_its_own_verifies(self):
        sink = _logged_sink(total_sectors=256)
        # [64, 128) verified before the pass, and by another source.
        self._verify(sink, 0.05, 64)
        sink.scrub_pass_started(0.1, "scrub", 0)
        self._verify(sink, 0.2, 64, source="other")
        for i, lbn in enumerate((0, 128, 192)):
            self._verify(sink, 0.3 + i * 0.1, lbn)
        with pytest.raises(InvariantViolation, match=r"gaps: \[\(64, 128\)\]"):
            sink.scrub_pass_completed(1.0, "scrub", 0, 192 * 512)

    def test_progress_fraction_bounds(self):
        sink = InvariantSink(total_sectors=256)
        sink.scrub_progress(0.0, "scrub", 0.5)
        with pytest.raises(InvariantViolation):
            sink.scrub_progress(0.1, "scrub", 1.25)


def _faults(total_sectors=1024, lbn=17):
    """Fault state with one latent error at ``lbn``, active from t=0."""
    from repro.faults import FaultPlan, MediaFaults
    from repro.faults.plan import SectorError

    faults = MediaFaults(
        FaultPlan(total_sectors, 1.0, (SectorError(0.0, lbn),)), spare_sectors=8
    )
    faults.advance(0.0)
    return faults


class TestFaultLifecycle:
    """Fault events are heard, counted and checked off the error log at
    :meth:`InvariantSink.finish`."""

    def test_double_remap_rejected(self):
        sink = InvariantSink(total_sectors=1024)
        faults = _faults()
        for now in (0.0, 0.1):
            faults.reallocate(17, now)
            sink.fault_event(now, "remap", 17)  # heard, not judged
        with pytest.raises(InvariantViolation) as exc:
            sink.finish(faults)
        assert exc.value.invariant == "fault-lifecycle"
        assert exc.value.message == "sector 17 reallocated twice"

    def test_verify_after_remap_needs_remap(self):
        log = ErrorLog()
        log.record_verify_after_remap(0.0, 17, ok=True)
        with pytest.raises(InvariantViolation) as exc:
            check_error_log(log)
        assert exc.value.invariant == "fault-lifecycle"
        assert "verify_after_remap for LBN 17 with no prior" in exc.value.message
        log = ErrorLog()
        log.record_reallocated(0.0, 17, ok=True)
        log.record_verify_after_remap(0.1, 17, ok=True)  # legal order
        check_error_log(log)

    def test_fault_lbn_bounds(self):
        log = ErrorLog()
        log.record_reallocated(0.0, 64, ok=True)
        check_error_log(log)  # no disk size, no bound
        with pytest.raises(InvariantViolation) as exc:
            check_error_log(log, total_sectors=64)
        assert exc.value.invariant == "lbn-bounds"
        assert "reallocated record for LBN 64 outside" in exc.value.message

    def test_finish_needs_the_fault_state_it_heard(self):
        sink = InvariantSink(total_sectors=1024)
        sink.fault_event(0.0, "scrub_detection", 17, source="scrub")
        with pytest.raises(RuntimeError, match="1 fault events .* no fault state"):
            sink.finish()
        sink.finish(_faults())


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

    def test_a_planted_violation_reports_the_recorded_text(self):
        # The window keeps each hook's arguments and formats them only
        # when a check fails; the report is the text the sink wrote when
        # it formatted every event as it arrived.
        assert _planted_violation().report() == _PLANTED_REPORT


#: ``_planted_violation().report()`` as the eagerly formatting sink wrote it.
_PLANTED_REPORT = "\n".join([
    "invariant 'clock-monotonicity' violated at t=0.035000: scrub_progress reported t=0.035 after t=0.04",
    '  last 21 events leading up to the violation:',
    '    t=0.000000     engine_run           0 events',
    '    t=0.000000     scrub_pass_started   scrubber pass 0',
    '    t=0.000000     request_queued       <IORequest verify lbn=0 x2048 IDLE src=scrubber>',
    '    t=0.001000     request_dispatched   <IORequest verify lbn=0 x2048 IDLE src=scrubber>',
    '    t=0.002500     request_completed    <IORequest verify lbn=0 x2048 IDLE src=scrubber>',
    '    t=0.002500     scrub_progress       scrubber 0.2500',
    '    t=0.010000     request_queued       <IORequest read lbn=100 x8 BE barrier src=foreground>',
    '    t=0.011000     request_dispatched   <IORequest read lbn=100 x8 BE barrier src=foreground>',
    '    t=0.012500     request_completed    <IORequest read lbn=100 x8 BE barrier src=foreground>',
    '    t=0.020000     request_queued       <IORequest write lbn=300 x16 RT src=foreground>',
    '    t=0.021000     request_dispatched   <IORequest write lbn=300 x16 RT src=foreground>',
    '    t=0.022500     request_completed    <IORequest write lbn=300 x16 RT src=foreground>',
    '    t=0.030000     request_queued       <IORequest verify lbn=2048 x2048 IDLE src=scrubber>',
    '    t=0.031000     request_dispatched   <IORequest verify lbn=2048 x2048 IDLE src=scrubber>',
    '    t=0.032500     request_completed    <IORequest verify lbn=2048 x2048 IDLE src=scrubber>',
    '    t=0.032500     scrub_progress       scrubber 1.0000',
    "    t=0.040000     fault_event          scrub_detection lbn=77 {'source': 'scrubber', 'sectors': 1}",
    '    t=0.040000     fault_event          remap lbn=77 {}',
    '    t=0.040000     scrub_pass_completed scrubber pass 0 (2097152B)',
    '    t=0.040000     engine_run           40 events',
    '    t=0.035000     scrub_progress       scrubber 0.2500',
])


def _planted_violation():
    """Real requests, a scrub pass, two fault events and two engine runs
    through the sink, then a progress sample from the past."""
    sink = _logged_sink(total_sectors=4096)
    sink.engine_run(0, 0.0, None)
    sink.scrub_pass_started(0.0, "scrubber", 0)
    requests = [
        IORequest(DiskCommand.verify(0, 2048), PriorityClass.IDLE, "scrubber"),
        IORequest(DiskCommand.read(100, 8), source="foreground", soft_barrier=True),
        IORequest(DiskCommand.write(300, 16), PriorityClass.RT, "foreground"),
        IORequest(DiskCommand.verify(2048, 2048), PriorityClass.IDLE, "scrubber"),
    ]
    now = 0.0
    for seq, request in enumerate(requests):
        request.seq = seq
        request.submit_time = now
        sink.request_queued(now, request)
        sink.request_dispatched(now + 0.001, request)
        request.complete_time = now + 0.0025
        sink.log.add(request)
        sink.request_completed(now + 0.0025, request)
        if request.source == "scrubber":
            sink.scrub_progress(now + 0.0025, "scrubber", (seq + 1) / 4)
        now += 0.01
    sink.fault_event(now, "scrub_detection", 77, source="scrubber", sectors=1)
    sink.fault_event(now, "remap", 77)
    sink.scrub_pass_completed(now, "scrubber", 0, 4096 * 512)
    sink.engine_run(40, now, None)
    with pytest.raises(InvariantViolation) as exc:
        sink.scrub_progress(now - 0.005, "scrubber", 0.25)
    return exc.value


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


class TestReplaySchedule:
    """One fault planted in the replay cursor per test; the sink must
    name the trace record where the submits leave the schedule."""

    #: A mid-trace record.
    K = 17

    @pytest.fixture
    def stack(self):
        from repro.disk import Drive, hitachi_ultrastar_15k450
        from repro.sched import BlockDevice, NoopScheduler
        from repro.sim import Simulation
        from repro.traces import Trace

        drive = Drive(hitachi_ultrastar_15k450(), cache_enabled=False)
        total = drive.total_sectors
        n = 40
        # Every third record lies past the end of the drive and wraps.
        lbns = np.arange(n) * 4096 + np.where(np.arange(n) % 3 == 0, total, 0)
        trace = Trace(
            0.5 + np.arange(n) * 0.003,
            lbns,
            np.full(n, 64),
            np.arange(n) % 4 == 1,
        )
        sink = InvariantSink(total_sectors=total)
        sim = Simulation(telemetry=sink)
        return sim, BlockDevice(sim, drive, NoopScheduler()), sink, trace

    def _replay(self, stack, source=None, time_scale=1.0):
        from repro.workloads.replay import TraceReplayer

        sim, device, sink, trace = stack
        sink.expect_replay(trace, time_scale, sim.now)
        replayer = TraceReplayer(
            sim, device, trace if source is None else source, time_scale
        )
        replayer.start()
        sim.run()
        sink.finish()
        return replayer

    def _violation(self, stack, **kwargs):
        with pytest.raises(InvariantViolation) as exc:
            self._replay(stack, **kwargs)
        assert exc.value.invariant == "replay-schedule"
        return exc.value.message

    @pytest.mark.parametrize("time_scale", [0.5, 1.0, 3.0])
    def test_a_clean_replay_passes(self, stack, time_scale):
        replayer = self._replay(stack, time_scale=time_scale)
        assert replayer.submitted == len(stack[3]) == stack[2]._replayed

    def test_a_uniform_shift_of_every_due_time(self, stack):
        from repro.verify.selftest import MUTATIONS

        with MUTATIONS["cursor-drift"].patch():  # every due + 5e-10
            message = self._violation(stack)
        assert "trace record 0:" in message

    def test_a_drift_on_one_mid_trace_record(self, stack, monkeypatch):
        from repro.workloads.replay import _ReplayCursor

        convert = _ReplayCursor._convert

        def drift(cursor, chunk, a, b):
            convert(cursor, chunk, a, b)
            if a <= self.K < b:
                cursor._dues[self.K - a] += 5e-10

        monkeypatch.setattr(_ReplayCursor, "_convert", drift)
        assert f"trace record {self.K}:" in self._violation(stack)

    def test_a_wrong_lbn_wrap(self, stack, monkeypatch):
        from repro.workloads.replay import _ReplayCursor

        convert = _ReplayCursor._convert

        def wrap_short(cursor, chunk, a, b):
            # Wraps modulo one sector less than the cursor promises.
            convert(cursor, chunk, a, b)
            for j, secs in enumerate(cursor._secs):
                lbn = int(chunk.lbns[a + j])
                if lbn + secs > cursor._total:
                    cursor._lbns[j] = lbn % (cursor._total - secs - 1)

        monkeypatch.setattr(_ReplayCursor, "_convert", wrap_short)
        # Record 0 is the first that lies past the end.
        assert "trace record 0:" in self._violation(stack)

    def test_a_skipped_record(self, stack, monkeypatch):
        from repro.workloads.replay import _ReplayCursor

        submit = _ReplayCursor._submit
        skipped = []

        def skip(cursor, idx):
            if cursor.count == self.K and not skipped:
                skipped.append(idx)
                return
            submit(cursor, idx)

        monkeypatch.setattr(_ReplayCursor, "_submit", skip)
        assert f"trace record {self.K}:" in self._violation(stack)

    def test_a_record_submitted_twice(self, stack, monkeypatch):
        from repro.workloads.replay import _ReplayCursor

        submit = _ReplayCursor._submit

        def twice(cursor, idx):
            submit(cursor, idx)
            if cursor.count == self.K + 1:
                submit(cursor, idx)

        monkeypatch.setattr(_ReplayCursor, "_submit", twice)
        # Record K goes out a second time where record K + 1 is due.
        assert f"trace record {self.K + 1}:" in self._violation(stack)

    def test_a_replay_that_ends_early(self, stack):
        trace = stack[3]
        half = trace.window(0.0, float(trace.times[self.K]))
        assert len(half) == self.K
        message = self._violation(stack, source=half)
        assert f"trace record {self.K} due at" in message

    def test_a_submit_past_the_last_record(self, stack):
        from repro.workloads.replay import TraceReplayer

        sim, device, sink, trace = stack
        # The sink is told of a shorter trace than the one replayed.
        sink.expect_replay(trace.window(0.0, float(trace.times[3])), 1.0, 0.0)
        TraceReplayer(sim, device, trace).start()
        with pytest.raises(InvariantViolation, match="past the trace's last record 2"):
            sim.run()

    def test_it_needs_the_disk_size(self):
        with pytest.raises(ValueError, match="total_sectors"):
            InvariantSink().expect_replay(None, 1.0, 0.0)
