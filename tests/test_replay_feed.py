"""The replay cursor against the replay-schedule invariant: a horizon
cut, a drain past the end, stop(), chunked and CSV-streamed input, and
the mean_slowdown_vs comparison guards."""

import inspect

import numpy as np
import pytest

from repro.analysis.replay_cdf import ReplayResult, replay_with_scrubber
from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.sched import BlockDevice, CFQScheduler
from repro.sim import Simulation
from repro.obs.sink import Recorder
from repro.traces import Trace, generate_trace
from repro.verify import InvariantSink, InvariantViolation
from repro.workloads.replay import TraceReplayer

HORIZON = 15.0


@pytest.fixture(scope="module")
def trace():
    return generate_trace("MSRsrc11", duration=60.0, seed=11)


def _stack(telemetry=None):
    drive = Drive(hitachi_ultrastar_15k450())
    if telemetry == "invariants":
        telemetry = InvariantSink(total_sectors=drive.total_sectors)
    sim = Simulation(telemetry=telemetry) if telemetry is not None else Simulation()
    return sim, BlockDevice(sim, drive, CFQScheduler()), telemetry


def _replay(source, expected=None, telemetry=None, until=HORIZON):
    """Replay ``source``; with ``expected`` (the whole trace ``source``
    replays) every submit is held to its schedule and the run ends in
    :meth:`InvariantSink.finish`."""
    sim, device, sink = _stack("invariants" if expected is not None else telemetry)
    if expected is not None:
        sink.expect_replay(expected, 1.0, sim.now)
    replayer = TraceReplayer(sim, device, source)
    replayer.start()
    sim.run(until=until)
    if expected is not None:
        sink.finish()
    return {
        "response_times": device.log.response_times("foreground"),
        "requests": device.log.count("foreground"),
        "submitted": replayer.submitted,
        "now": sim.now,
    }


def _assert_same(a, b):
    assert np.array_equal(a["response_times"], b["response_times"])
    assert a["requests"] == b["requests"]
    assert a["submitted"] == b["submitted"]
    assert a["now"] == b["now"]


class TestFeedDeterminism:
    def test_a_horizon_cut_replay_keeps_the_schedule(self, trace):
        result = _replay(trace, expected=trace)
        assert 0 < result["submitted"] < len(trace)
        _assert_same(result, _replay(trace))

    def test_a_recorder_sees_the_checked_replay(self, trace):
        recorder = Recorder(wall_time=False)
        recorded = _replay(trace, telemetry=recorder)
        _assert_same(recorded, _replay(trace, expected=trace))
        assert recorder.metrics.counter("device.submitted").value == (
            recorded["submitted"]
        )

    def test_full_trace_drains_identically(self, trace):
        until = trace.duration + 5.0
        drained = _replay(trace, expected=trace, until=until)
        assert drained["submitted"] == len(trace)
        _assert_same(drained, _replay(trace, until=until))

    def test_empty_trace(self):
        empty = Trace(
            np.zeros(0), np.zeros(0, int), np.ones(0, int), np.zeros(0, bool)
        )
        result = _replay(empty, expected=empty)
        assert result["submitted"] == 0
        assert result["requests"] == 0


def _chunks(trace, *bounds):
    return [
        Trace(
            trace.times[a:b],
            trace.lbns[a:b],
            trace.sectors[a:b],
            trace.is_write[a:b],
            name=trace.name,
            capacity_sectors=trace.capacity_sectors,
        )
        for a, b in zip(bounds, bounds[1:])
    ]


class TestChunkedReplay:
    def test_chunk_sequence_matches_whole_trace(self, trace):
        third = len(trace) // 3
        chunks = _chunks(trace, 0, third, 2 * third, len(trace))
        _assert_same(_replay(iter(chunks), expected=trace), _replay(trace))

    def test_unsorted_chunk_sequence_rejected(self, trace):
        first, second = _chunks(trace, 0, len(trace) // 2, len(trace))
        with pytest.raises(ValueError, match="time-sorted"):
            _replay(iter([second, first]), until=trace.duration + 5.0)

    def test_a_non_iterable_is_refused(self):
        sim, device, _ = _stack()
        with pytest.raises(TypeError, match="chunks, not int"):
            TraceReplayer(sim, device, 42)


class TestStop:
    def test_a_stop_mid_replay_ends_the_schedule_there(self, trace):
        sim, device, sink = _stack("invariants")
        sink.expect_replay(trace, 1.0, sim.now)
        replayer = TraceReplayer(sim, device, trace)
        replayer.start()
        sim.run(until=5.0)
        sink.finish()  # every record due before the stop went out on time
        at_stop = replayer.submitted
        replayer.stop()
        sim.run(until=HORIZON)
        assert 0 < at_stop == replayer.submitted
        # The first record the stop withheld, due inside the run.
        with pytest.raises(InvariantViolation, match=f"trace record {at_stop} "):
            sink.finish()

    def test_a_stop_before_start_submits_nothing(self, trace):
        sim, device, sink = _stack("invariants")
        sink.expect_replay(trace, 1.0, sim.now)
        replayer = TraceReplayer(sim, device, trace)
        replayer.start()
        replayer.stop()  # before the init event ever fires
        sim.run(until=1.0)
        assert replayer.submitted == 0
        with pytest.raises(InvariantViolation, match="trace record 0 "):
            sink.finish()


class TestMeanSlowdownGuards:
    def _result(self, digest="d1", horizon=HORIZON, n=100):
        return ReplayResult(
            horizon=horizon,
            fg_response_times=np.linspace(0.001, 0.01, n),
            fg_requests=n,
            scrub_bytes=0,
            scrub_requests=0,
            trace_digest=digest,
        )

    def test_different_traces_rejected(self):
        with pytest.raises(ValueError, match="different traces"):
            self._result("aaaa").mean_slowdown_vs(self._result("bbbb"))

    def test_different_horizons_rejected(self):
        with pytest.raises(ValueError, match="different horizons"):
            self._result(horizon=1.0).mean_slowdown_vs(
                self._result(horizon=2.0)
            )

    def test_diverging_counts_rejected(self):
        with pytest.raises(ValueError, match="diverge too far"):
            self._result(n=100).mean_slowdown_vs(self._result(n=10))

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError, match="no common completed"):
            self._result(n=0).mean_slowdown_vs(self._result(n=0))

    def test_unknown_digest_is_tolerated(self):
        # Old pickled results predate the digest; positional compare
        # still works when either side lacks one.
        legacy = self._result(digest=None)
        assert self._result().mean_slowdown_vs(legacy) == pytest.approx(0.0)

    def test_plausible_tail_is_tolerated(self):
        slowdown = self._result(n=100).mean_slowdown_vs(self._result(n=90))
        assert isinstance(slowdown, float)

    def test_feed_validation(self, trace):
        # One replay feed: no entry point takes a ``feed`` switch.
        from repro.analysis.detection import (
            detection_sweep_task,
            run_detection_experiment,
        )

        for fn in (
            replay_with_scrubber, run_detection_experiment, detection_sweep_task,
        ):
            assert "feed" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError, match="feed"):
            replay_with_scrubber(
                trace, hitachi_ultrastar_15k450(), horizon=1.0, feed="records"
            )


class TestCursorBlocks:
    """The cursor converts records block-wise, 1024 first and doubling
    (DESIGN §10): a horizon pays for about what it replays."""

    @pytest.fixture(scope="class")
    def long_trace(self):
        # 100k requests, one every 20 ms, a few seconds' worth reached.
        n = 100_000
        rng = np.random.default_rng(5)
        return Trace(
            np.arange(n) * 0.02,
            rng.integers(0, 1 << 20, size=n),
            rng.choice([8, 64], size=n),
            rng.random(n) < 0.3,
            name="long",
        )

    @pytest.mark.parametrize("submitted", [1, 1000, 1024, 1025, 3071, 7000])
    def test_a_horizon_converts_fewer_than_twice_what_it_reaches(
        self, long_trace, monkeypatch, submitted
    ):
        from repro.workloads.replay import _ReplayCursor

        converted = []
        convert = _ReplayCursor._convert

        def spy(self, chunk, a, b):
            converted.append(b - a)
            convert(self, chunk, a, b)

        monkeypatch.setattr(_ReplayCursor, "_convert", spy)
        # Record k is due at k * 20 ms: stop just after the last one.
        result = _replay(long_trace, until=(submitted - 1) * 0.02 + 0.01)
        assert result["submitted"] == submitted
        # The cursor has read one record more: the one it waits for.
        reached = submitted + 1
        assert sum(converted) < 2 * reached + 1024
        assert converted[:3] == [1024, 2048, 4096][: len(converted)]

    @pytest.fixture(scope="class")
    def csv_replay(self, tmp_path_factory):
        """A 300 s trace written to CSV, and its replay read back whole."""
        from repro.traces.io import read_csv_trace, write_csv_trace

        path = tmp_path_factory.mktemp("feed") / "trace.csv"
        write_csv_trace(generate_trace("MSRsrc11", duration=300.0, seed=11), path)
        parsed = read_csv_trace(path)  # times rounded to the file's µs
        until = parsed.duration + 5.0
        whole = _replay(parsed, until=until)
        # Blocks of 1024, 2048 and 4096 records, and part of a fourth.
        assert whole["submitted"] == len(parsed) > 1024 + 2048 + 4096
        _assert_same(_replay(parsed, expected=parsed, until=until), whole)
        return path, until, whole, parsed

    @pytest.mark.parametrize("chunk_requests", [1, 700, 1024, 2500])
    def test_a_streamed_csv_replays_bit_identically(self, csv_replay, chunk_requests):
        from repro.traces.io import iter_trace_chunks

        path, until, whole, parsed = csv_replay
        chunks = iter_trace_chunks(path, chunk_requests=chunk_requests)
        _assert_same(_replay(chunks, expected=parsed, until=until), whole)
