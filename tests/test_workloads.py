"""Tests for synthetic workloads and the trace replayer (repro.workloads)."""

from dataclasses import dataclass

import pytest

from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.sched import BlockDevice, CFQScheduler, NoopScheduler
from repro.sim import RandomStreams, Simulation
from repro.traces import Trace
from repro.workloads import RandomReader, SequentialReader, TraceReplayer


@dataclass
class FakeRecord:
    time: float
    lbn: int
    sectors: int
    is_write: bool


def make_stack(cache=False):
    sim = Simulation()
    device = BlockDevice(
        sim, Drive(hitachi_ultrastar_15k450(), cache_enabled=cache), NoopScheduler()
    )
    return sim, device, RandomStreams(seed=7)


class TestSequentialReader:
    def test_reads_whole_chunks_sequentially(self):
        sim, device, streams = make_stack()
        workload = SequentialReader(
            sim, device, streams.get("fg"), request_bytes=64 * 1024,
            think_mean=0.0,
        )
        workload.start()
        sim.run(until=0.5)
        requests = device.log.requests("foreground")
        assert len(requests) >= 8
        # Within a chunk, LBNs advance by exactly the request size.
        chunk = requests[:4]
        deltas = {
            b.command.lbn - a.command.lbn for a, b in zip(chunk, chunk[1:])
        }
        assert deltas == {128}

    def test_chunks_start_at_random_locations(self):
        sim, device, streams = make_stack()
        workload = SequentialReader(sim, device, streams.get("fg"), think_mean=0.0)
        workload.start()
        sim.run(until=2.0)
        starts = [
            r.command.lbn
            for r in device.log.requests("foreground")[::128]  # 8 MB / 64 KB
        ]
        assert len(starts) > 1
        assert len(set(starts)) == len(starts)

    def test_throughput_matches_paper_ballpark(self):
        """Cache-off sequential 64 KB reads with 100 ms chunk thinks land
        near the paper's 12.1 MB/s foreground-alone figure."""
        sim, device, streams = make_stack(cache=False)
        workload = SequentialReader(sim, device, streams.get("fg"))
        workload.start()
        sim.run(until=30.0)
        mbps = device.log.bytes_completed("foreground") / 30.0 / 1e6
        assert 9.0 < mbps < 16.0

    def test_stop_halts_submissions(self):
        sim, device, streams = make_stack()
        workload = SequentialReader(
            sim, device, streams.get("fg"), think_mean=0.0
        )
        workload.start()
        sim.run(until=0.2)
        workload.stop()
        sim.run(until=0.4)
        count = workload.requests_issued
        sim.run(until=0.6)
        assert workload.requests_issued == count

    def test_invalid_parameters(self):
        sim, device, streams = make_stack()
        with pytest.raises(ValueError, match="divide the 8 MB chunk"):
            SequentialReader(
                sim, device, streams.get("fg"), request_bytes=3 * 1024
            )
        with pytest.raises(ValueError):
            SequentialReader(
                sim, device, streams.get("fg"), request_bytes=1000
            )
        with pytest.raises(ValueError):
            SequentialReader(sim, device, streams.get("fg"), think_mean=-1)

    def test_double_start_rejected(self):
        sim, device, streams = make_stack()
        workload = SequentialReader(sim, device, streams.get("fg"))
        workload.start()
        with pytest.raises(RuntimeError):
            workload.start()


class TestRandomReader:
    def test_locations_are_scattered(self):
        sim, device, streams = make_stack()
        workload = RandomReader(
            sim, device, streams.get("fg"), think_mean=0.001
        )
        workload.start()
        sim.run(until=2.0)
        lbns = [r.command.lbn for r in device.log.requests("foreground")]
        assert len(lbns) > 20
        spread = max(lbns) - min(lbns)
        assert spread > device.drive.total_sectors / 10

    def test_random_slower_than_sequential(self):
        sim_a, dev_a, streams_a = make_stack()
        SequentialReader(
            sim_a, dev_a, streams_a.get("fg"), think_mean=0.0
        ).start()
        sim_a.run(until=5.0)

        sim_b, dev_b, streams_b = make_stack()
        RandomReader(sim_b, dev_b, streams_b.get("fg"), think_mean=0.0).start()
        sim_b.run(until=5.0)

        assert dev_b.log.bytes_completed() < dev_a.log.bytes_completed()


def _trace(records):
    """A :class:`Trace` of ``FakeRecord`` s, in the order given."""
    return Trace(
        [r.time for r in records],
        [r.lbn for r in records],
        [r.sectors for r in records],
        [r.is_write for r in records],
    )


class TestTraceReplayer:
    def test_preserves_arrival_times(self):
        sim, device, _ = make_stack()
        records = [
            FakeRecord(time=10.0, lbn=0, sectors=8, is_write=False),
            FakeRecord(time=10.5, lbn=1000, sectors=8, is_write=False),
            FakeRecord(time=12.0, lbn=2000, sectors=8, is_write=True),
        ]
        replayer = TraceReplayer(sim, device, _trace(records))
        replayer.start()
        sim.run()
        requests = device.log.requests("foreground")
        # Arrival spacing is preserved relative to the first record.
        submits = sorted(r.submit_time for r in requests)
        assert submits[1] - submits[0] == pytest.approx(0.5)
        assert submits[2] - submits[0] == pytest.approx(2.0)

    def test_time_scale_compresses(self):
        sim, device, _ = make_stack()
        records = [
            FakeRecord(time=0.0, lbn=0, sectors=8, is_write=False),
            FakeRecord(time=10.0, lbn=1000, sectors=8, is_write=False),
        ]
        TraceReplayer(sim, device, _trace(records), time_scale=0.1).start()
        sim.run()
        submits = sorted(r.submit_time for r in device.log.requests())
        assert submits[1] - submits[0] == pytest.approx(1.0)

    def test_a_record_list_is_refused(self):
        # One feed: records replay as a Trace, whose times are sorted
        # when it is built.
        sim, device, _ = make_stack()
        records = [
            FakeRecord(time=5.0, lbn=1000, sectors=8, is_write=False),
            FakeRecord(time=1.0, lbn=0, sectors=8, is_write=False),
        ]
        with pytest.raises(TypeError, match="not FakeRecord items"):
            TraceReplayer(sim, device, records)
        with pytest.raises(ValueError, match="non-decreasing"):
            _trace(records)

    def test_lbn_wrapping(self):
        sim, device, _ = make_stack()
        huge = device.drive.total_sectors * 2
        records = [FakeRecord(time=0.0, lbn=huge, sectors=8, is_write=False)]
        TraceReplayer(sim, device, _trace(records)).start()
        sim.run()
        assert device.log.count() == 1

    def test_write_records_become_writes(self):
        sim, device, _ = make_stack()
        records = [FakeRecord(time=0.0, lbn=0, sectors=8, is_write=True)]
        TraceReplayer(sim, device, _trace(records)).start()
        sim.run()
        from repro.disk.commands import Opcode

        assert device.log.requests()[0].command.opcode is Opcode.WRITE

    def test_open_loop_under_cfq(self):
        sim = Simulation()
        device = BlockDevice(
            sim,
            Drive(hitachi_ultrastar_15k450(), cache_enabled=False),
            CFQScheduler(),
        )
        records = [
            FakeRecord(time=0.001 * i, lbn=8 * i, sectors=8, is_write=False)
            for i in range(100)
        ]
        TraceReplayer(sim, device, _trace(records)).start()
        sim.run()
        assert device.log.count() == 100
