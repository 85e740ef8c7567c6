"""Tests for the full-stack Waiting scrubber (repro.core.policies.device)
and the replay helper (repro.analysis.replay_cdf)."""

import numpy as np
import pytest

from repro.analysis.impact import ScrubberSetup
from repro.analysis.replay_cdf import replay_with_scrubber
from repro.core import SequentialScrub
from repro.core.policies import WaitingScrubber
from repro.disk import DiskCommand, Drive, hitachi_ultrastar_15k450
from repro.sched import BlockDevice, IORequest, NoopScheduler
from repro.sim import Simulation
from repro.traces import Trace


def make_stack():
    sim = Simulation()
    device = BlockDevice(
        sim,
        Drive(hitachi_ultrastar_15k450(), cache_enabled=False),
        NoopScheduler(),
    )
    return sim, device


def make_trace(times, lbn_step=1000, sectors=8):
    times = np.asarray(times, dtype=float)
    n = len(times)
    return Trace(
        times,
        np.arange(n, dtype=np.int64) * lbn_step,
        np.full(n, sectors, dtype=np.int64),
        np.zeros(n, dtype=bool),
        name="unit",
    )


class TestWaitingScrubber:
    def test_fires_after_threshold_on_idle_disk(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(
            sim, device, SequentialScrub(), threshold=0.5
        )
        scrubber.start()
        sim.run(until=0.4)
        assert scrubber.requests_issued == 0
        sim.run(until=1.0)
        assert scrubber.requests_issued > 0
        first = device.log.requests("scrubber")[0]
        assert first.submit_time == pytest.approx(0.5)

    def test_waits_out_foreground_activity(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(
            sim, device, SequentialScrub(), threshold=0.2
        )
        scrubber.start()

        def foreground(sim, device):
            for i in range(5):
                done = device.submit(IORequest(DiskCommand.read(i * 100, 8)))
                yield done
                yield sim.timeout(0.1)  # gaps < threshold: no scrubbing

        sim.process(foreground(sim, device))
        sim.run(until=0.55)
        assert scrubber.requests_issued == 0

    def test_stops_firing_on_foreground_arrival_and_counts_collision(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(
            sim, device, SequentialScrub(), threshold=0.05,
            request_bytes=1024 * 1024,
        )
        scrubber.start()

        def late_foreground(sim, device):
            yield sim.timeout(0.5)
            yield device.submit(IORequest(DiskCommand.read(0, 8)))

        sim.process(late_foreground(sim, device))
        # Let the in-flight verify and the foreground request finish.
        sim.run(until=0.7)
        assert scrubber.collisions >= 1
        fg = device.log.requests("foreground")
        assert fg, "foreground request should have completed"
        # The foreground request was delayed by the in-flight verify.
        assert fg[0].wait_time > 0

    def test_resumes_after_interruption(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(
            sim, device, SequentialScrub(), threshold=0.05
        )
        scrubber.start()

        def one_shot(sim, device):
            yield sim.timeout(0.3)
            yield device.submit(IORequest(DiskCommand.read(0, 8)))

        sim.process(one_shot(sim, device))
        sim.run(until=0.3)
        before = scrubber.requests_issued
        sim.run(until=1.0)
        assert scrubber.requests_issued > before

    def test_stop_detaches(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(sim, device, SequentialScrub(), threshold=0.01)
        scrubber.start()
        sim.run(until=0.2)
        scrubber.stop()
        count = scrubber.requests_issued
        sim.run(until=0.5)
        assert scrubber.requests_issued == count
        assert scrubber._observe not in device.observers

    def test_double_start_rejected(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(sim, device, SequentialScrub())
        scrubber.start()
        with pytest.raises(RuntimeError):
            scrubber.start()

    def test_validation(self):
        sim, device = make_stack()
        with pytest.raises(ValueError):
            WaitingScrubber(sim, device, SequentialScrub(), threshold=-1)
        with pytest.raises(ValueError):
            WaitingScrubber(sim, device, SequentialScrub(), request_bytes=100)

    def test_throughput_validation(self):
        sim, device = make_stack()
        scrubber = WaitingScrubber(sim, device, SequentialScrub())
        with pytest.raises(ValueError):
            scrubber.throughput(0)


class TestReplayWithScrubber:
    def _sparse_trace(self):
        # Requests every 200 ms: plenty of idle for scrubbers.
        return make_trace(np.arange(50) * 0.2)

    def test_bare_replay(self):
        trace = self._sparse_trace()
        result = replay_with_scrubber(
            trace, hitachi_ultrastar_15k450(), horizon=trace.duration + 1.0
        )
        assert result.fg_requests == 50
        assert result.scrub_bytes == 0

    def test_cfq_scrubber_replay(self):
        result = replay_with_scrubber(
            self._sparse_trace(),
            hitachi_ultrastar_15k450(),
            scrubber=ScrubberSetup(),
        )
        assert result.scrub_bytes > 0
        assert result.scrub_requests_per_sec > 0

    def test_waiting_scrubber_replay(self):
        result = replay_with_scrubber(
            self._sparse_trace(),
            hitachi_ultrastar_15k450(),
            waiting={"threshold": 0.05, "request_bytes": 65536},
        )
        assert result.scrub_bytes > 0

    def test_slowdown_versus_baseline(self):
        trace = self._sparse_trace()
        baseline = replay_with_scrubber(trace, hitachi_ultrastar_15k450())
        loaded = replay_with_scrubber(
            trace, hitachi_ultrastar_15k450(),
            scrubber=ScrubberSetup(),
            idle_gate=0.0,
        )
        slowdown = loaded.mean_slowdown_vs(baseline)
        assert slowdown >= 0

    def test_both_scrubbers_rejected(self):
        with pytest.raises(ValueError):
            replay_with_scrubber(
                self._sparse_trace(),
                hitachi_ultrastar_15k450(),
                scrubber=ScrubberSetup(),
                waiting={"threshold": 0.1},
            )

    @pytest.mark.parametrize("waiting, named", [
        ({"treshold": 0.01}, "treshold"),
        ({"threshold": 0.01, "request_kb": 64}, "request_kb"),
    ])
    def test_misspelt_waiting_key_rejected(self, waiting, named, monkeypatch):
        from repro.analysis import stack

        def built(*args, **kwargs):
            raise AssertionError("validated only after the stack was built")

        monkeypatch.setattr(stack.ScrubStack, "__init__", built)
        with pytest.raises(ValueError, match=named):
            replay_with_scrubber(
                self._sparse_trace(), hitachi_ultrastar_15k450(), waiting=waiting
            )

    def test_empty_trace_rejected(self):
        empty = make_trace([])
        with pytest.raises(ValueError):
            replay_with_scrubber(empty, hitachi_ultrastar_15k450())
