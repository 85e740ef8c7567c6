"""Batched array-cursor replay vs the legacy record feed: bit-identity,
chunked streaming, stop()/error parity, and the mean_slowdown_vs
comparison guards."""

import inspect

import numpy as np
import pytest

from repro.analysis.replay_cdf import ReplayResult, replay_with_scrubber
from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.sched import BlockDevice, CFQScheduler
from repro.sim import Simulation
from repro.obs.sink import Recorder
from repro.traces import Trace, generate_trace
from repro.workloads.replay import TraceReplayer

HORIZON = 15.0


@pytest.fixture(scope="module")
def trace():
    return generate_trace("MSRsrc11", duration=60.0, seed=11)


def _replay(trace_or_records, telemetry=None, until=HORIZON, **kwargs):
    sim = Simulation(telemetry=telemetry) if telemetry is not None else Simulation()
    device = BlockDevice(
        sim, Drive(hitachi_ultrastar_15k450()), CFQScheduler()
    )
    replayer = TraceReplayer(sim, device, trace_or_records, **kwargs)
    replayer.start()
    sim.run(until=until)
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
    def test_arrays_match_records_feed(self, trace):
        _assert_same(_replay(trace), _replay(trace.records()))

    def test_arrays_match_records_feed_under_telemetry(self, trace):
        rec_a, rec_b = Recorder(wall_time=False), Recorder(wall_time=False)
        a = _replay(trace, telemetry=rec_a)
        b = _replay(trace.records(), telemetry=rec_b)
        _assert_same(a, b)
        assert rec_a.export() == rec_b.export()

    def test_full_trace_drains_identically(self, trace):
        _assert_same(
            _replay(trace, until=trace.duration + 5.0),
            _replay(trace.records(), until=trace.duration + 5.0),
        )

    def test_empty_trace(self):
        empty = Trace(
            np.zeros(0), np.zeros(0, int), np.ones(0, int), np.zeros(0, bool)
        )
        result = _replay(empty)
        assert result["submitted"] == 0
        assert result["requests"] == 0


class TestChunkedReplay:
    def test_chunk_sequence_matches_whole_trace(self, trace):
        third = len(trace) // 3
        chunks = [
            Trace(
                trace.times[a:b],
                trace.lbns[a:b],
                trace.sectors[a:b],
                trace.is_write[a:b],
                name=trace.name,
                capacity_sectors=trace.capacity_sectors,
            )
            for a, b in ((0, third), (third, 2 * third), (2 * third, len(trace)))
        ]
        _assert_same(_replay(iter(chunks)), _replay(trace))

    def test_unsorted_chunk_sequence_rejected(self, trace):
        half = len(trace) // 2
        first = Trace(
            trace.times[:half], trace.lbns[:half],
            trace.sectors[:half], trace.is_write[:half],
        )
        second = Trace(
            trace.times[half:], trace.lbns[half:],
            trace.sectors[half:], trace.is_write[half:],
        )
        with pytest.raises(ValueError, match="time-sorted"):
            _replay(iter([second, first]), until=trace.duration + 5.0)


class TestCursorParity:
    def _tiny(self, lbn=100):
        return Trace([0.0, 0.5, 1.0], [lbn, lbn, lbn], [8, 8, 8],
                     [False, True, False])

    def test_stop_mid_replay_matches_records_feed(self, trace):
        def run(source):
            sim = Simulation()
            device = BlockDevice(
                sim, Drive(hitachi_ultrastar_15k450()), CFQScheduler()
            )
            replayer = TraceReplayer(sim, device, source)
            replayer.start()
            sim.run(until=5.0)
            replayer.stop()
            sim.run(until=HORIZON)
            return {
                "response_times": device.log.response_times("foreground"),
                "requests": device.log.count("foreground"),
                "submitted": replayer.submitted,
                "now": sim.now,
            }

        _assert_same(run(trace), run(trace.records()))

    def test_stop_before_start_matches_records_feed(self, trace):
        def run(source):
            sim = Simulation()
            device = BlockDevice(
                sim, Drive(hitachi_ultrastar_15k450()), CFQScheduler()
            )
            replayer = TraceReplayer(sim, device, source)
            replayer.start()
            replayer.stop()  # before the init event ever fires
            sim.run(until=1.0)
            return replayer.submitted

        assert run(trace) == run(trace.records()) == 0


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
        # The feed is no longer a public switch: the record feed is
        # reached through TraceReplayer (above) and the verify harness.
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
