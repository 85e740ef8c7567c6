"""End-to-end integration tests across the whole stack.

These exercise the complete pipelines a user of the library would run,
at reduced scale: trace generation → statistics → optimisation →
full-stack validation, and scrubbing → LSE repair → rebuild.
"""

import numpy as np
import pytest

from repro.analysis.replay_cdf import replay_with_scrubber
from repro.analysis.service_model import ScrubServiceModel
from repro.core import Scrubber, SequentialScrub, StaggeredScrub
from repro.core.optimizer import ScrubParameterOptimizer
from repro.core.policies import WaitingScrubber
from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.raid import RaidArray, RaidGeometry, RaidLevel
from repro.sched import BlockDevice, CFQScheduler, NoopScheduler, PriorityClass
from repro.sim import RandomStreams, Simulation
from repro.traces import generate_trace
from repro.traces.catalog import trace_idle_intervals
from repro.workloads import SequentialReader, TraceReplayer


@pytest.fixture(scope="module")
def service_model():
    return ScrubServiceModel.from_spec(hitachi_ultrastar_15k450())


class TestTuneAndValidatePipeline:
    """The paper's Section V-D workflow, end to end."""

    def test_optimizer_parameters_hold_up_in_replay(self, service_model):
        trace = generate_trace("MSRusr2", duration=3600.0)
        _, durations = trace_idle_intervals("MSRusr2", trace)
        optimizer = ScrubParameterOptimizer(
            durations, len(trace), trace.duration, service_model
        )
        best = optimizer.optimize(0.0005)

        window = trace.window(0.0, 240.0)
        baseline = replay_with_scrubber(
            window, hitachi_ultrastar_15k450(), horizon=240.0
        )
        tuned = replay_with_scrubber(
            window, hitachi_ultrastar_15k450(),
            waiting={
                "threshold": best.threshold,
                "request_bytes": best.request_bytes,
            },
            horizon=240.0,
        )
        slowdown = tuned.mean_slowdown_vs(baseline)
        # Queueing amplification allows some excess over the analytic
        # goal, but the measured slowdown stays in the same regime...
        assert slowdown < 20 * 0.0005
        # ...while scrub throughput is a large fraction of the analytic
        # prediction.
        assert tuned.scrub_mbps > 0.3 * best.throughput_mbps

    def test_waiting_beats_cfq_at_matched_slowdown(self, service_model):
        trace = generate_trace("MSRusr2", duration=3600.0)
        _, durations = trace_idle_intervals("MSRusr2", trace)
        optimizer = ScrubParameterOptimizer(
            durations, len(trace), trace.duration, service_model
        )
        best = optimizer.optimize(0.0002)
        window = trace.window(0.0, 240.0)
        spec = hitachi_ultrastar_15k450()
        baseline = replay_with_scrubber(window, spec, horizon=240.0)
        from repro.analysis.impact import ScrubberSetup

        cfq = replay_with_scrubber(
            window, spec, scrubber=ScrubberSetup(priority=PriorityClass.IDLE),
            horizon=240.0,
        )
        waiting = replay_with_scrubber(
            window, spec,
            waiting={
                "threshold": best.threshold,
                "request_bytes": best.request_bytes,
            },
            horizon=240.0,
        )
        assert waiting.scrub_mbps > 2 * cfq.scrub_mbps
        assert waiting.mean_slowdown_vs(baseline) < 5 * max(
            cfq.mean_slowdown_vs(baseline), 1e-4
        )


class TestScrubProtectsRebuild:
    """Scrubbing -> repair -> failure -> rebuild, on the full stack."""

    def _tiny_drive(self):
        return Drive(
            hitachi_ultrastar_15k450().with_overrides(
                cylinders=100, outer_spt=64, inner_spt=64, num_zones=1,
                heads=2, average_seek=1e-3, full_stroke_seek=2e-3,
            ),
            cache_enabled=False,
        )

    def _make_array(self, sim):
        devices = [
            BlockDevice(sim, self._tiny_drive(), NoopScheduler())
            for _ in range(3)
        ]
        sectors = devices[0].drive.total_sectors
        sectors -= sectors % 16
        geometry = RaidGeometry(RaidLevel.RAID5, 3, 16, sectors)
        return RaidArray(sim, devices, geometry)

    def _run(self, scrub):
        sim = Simulation()
        array = self._make_array(sim)
        rng = np.random.default_rng(11)
        for _ in range(10):
            disk = int(rng.choice([0, 2]))
            array.errors.inject(
                disk, int(rng.integers(0, array.geometry.disk_sectors - 8)),
                int(rng.integers(1, 8)),
            )
        if scrub:
            for disk in (0, 2):
                scrubber = Scrubber(
                    sim, array.devices[disk], StaggeredScrub(8), max_passes=1
                )
                done = scrubber.start()
                sim.run(until=done)
        array.fail_disk(1)
        return sim.run(until=array.rebuild())

    def test_scrubbing_eliminates_rebuild_losses(self):
        assert self._run(scrub=False) > 0
        assert self._run(scrub=True) == 0


class TestForegroundPlusScrubberPlusReplayer:
    def test_three_way_coexistence(self):
        """Closed-loop reader, open-loop replayer and an Idle scrubber
        share one device without deadlock or starvation anomalies."""
        sim = Simulation()
        device = BlockDevice(
            sim,
            Drive(hitachi_ultrastar_15k450(), cache_enabled=False),
            CFQScheduler(),
        )
        streams = RandomStreams(seed=21)
        SequentialReader(sim, device, streams.get("reader")).start()
        # Flat (non-diurnal) arrivals so a 20 s window has traffic.
        trace = generate_trace("TPCdisk66", duration=20.0, rate_scale=0.01)
        replayer = TraceReplayer(sim, device, trace.records())
        replayer.start()
        scrubber = Scrubber(
            sim, device, SequentialScrub(), priority=PriorityClass.IDLE
        )
        scrubber.start()
        sim.run(until=20.0)
        # Reader and replayer both submit as "foreground".
        assert device.log.count("foreground") > 100 + replayer.submitted
        assert replayer.submitted > 10
        # Everything submitted eventually completed (bounded queues).
        assert device.queued < 50


class TestWaitingScrubberFullPass:
    def test_scrubs_whole_disk_through_idle_gaps(self):
        sim = Simulation()
        spec = hitachi_ultrastar_15k450().with_overrides(
            cylinders=60, outer_spt=64, inner_spt=64, num_zones=1, heads=2,
            average_seek=1e-3, full_stroke_seek=2e-3,
        )
        device = BlockDevice(
            sim, Drive(spec, cache_enabled=False), NoopScheduler()
        )
        scrubber = WaitingScrubber(
            sim, device, SequentialScrub(), threshold=0.02,
            request_bytes=32 * 1024,
        )
        scrubber.start()

        def sporadic(sim, device):
            from repro.disk import DiskCommand
            from repro.sched import IORequest

            rng = RandomStreams(seed=3).get("sporadic")
            while True:
                yield sim.timeout(rng.exponential(0.2))
                device.submit(IORequest(DiskCommand.read(0, 8)))

        sim.process(sporadic(sim, device))
        sim.run(until=30.0)
        assert scrubber.passes_completed >= 1
        assert scrubber.collisions > 0
