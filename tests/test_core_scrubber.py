"""Tests for the scrubbing framework and algorithms (repro.core)."""

import ast
from pathlib import Path

import pytest

from repro.core import Scrubber, SequentialScrub, StaggeredScrub
from repro.core.scrubber import ScrubAlgorithm
from repro.disk import Drive, hitachi_ultrastar_15k450
from repro.disk.commands import SECTOR_SIZE
from repro.disk.models import DriveSpec
from repro.faults import RemediationPolicy
from repro.sched import BlockDevice, CFQScheduler, NoopScheduler, PriorityClass
from repro.sim import RandomStreams, Simulation
from repro.workloads import SequentialReader
from tests.test_faults import make_stack as fault_stack


def tiny_spec(**overrides) -> DriveSpec:
    """A minuscule drive so full passes finish quickly in tests."""
    spec = hitachi_ultrastar_15k450().with_overrides(
        cylinders=30, outer_spt=64, inner_spt=64, num_zones=1, heads=2,
        average_seek=1e-3, full_stroke_seek=2e-3,
    )
    return spec.with_overrides(**overrides)


def make_stack(spec=None, scheduler=None):
    sim = Simulation()
    drive = Drive(spec or tiny_spec(), cache_enabled=False)
    if scheduler is None:  # note: an *empty* scheduler is falsy (__len__)
        scheduler = NoopScheduler()
    device = BlockDevice(sim, drive, scheduler)
    return sim, device


class _EmptyPass(ScrubAlgorithm):
    """An order whose every pass visits nothing."""

    def reset(self, total_sectors, request_sectors):
        pass

    def next_extent(self):
        return None


class ScrubberContract:
    """The lifecycle every pacing keeps, written once.

    The scrubber is one class with two pacings: the delay-paced
    framework :class:`Scrubber` and the idle-paced ``WaitingScrubber``.
    Each pacing's test class subclasses this one (``TestScrubberFramework``
    below, ``TestWaitingScrubber`` in ``test_waiting_scrubber.py``) and
    says how to build its scrubber: :meth:`build` (unstarted, sequential
    unless ``algorithm`` is given), ``invalid`` (constructor keywords
    it must reject besides a request size that is no whole number of
    sectors) and ``one_pass`` (keywords that end the run after one pass,
    where the pacing has them).
    """

    invalid = ()
    one_pass = {}

    def build(self, sim, device, algorithm=None, **kwargs):
        raise NotImplementedError

    def test_double_start_rejected(self):
        sim, device = make_stack()
        scrubber = self.build(sim, device)
        scrubber.start()
        with pytest.raises(RuntimeError, match="already running"):
            scrubber.start()

    def test_stop_detaches(self):
        sim, device = make_stack()
        scrubber = self.build(sim, device)
        scrubber.start()
        sim.run(until=0.05)
        assert scrubber.requests_issued > 0
        scrubber.stop()
        issued = scrubber.requests_issued
        sim.run(until=0.2)
        assert scrubber.requests_issued == issued
        assert device.observers == []

    def test_validation(self):
        sim, device = make_stack()
        for kwargs in ({"request_bytes": 1000}, *self.invalid):
            with pytest.raises(ValueError):
                self.build(sim, device, **kwargs)

    def test_throughput_validation(self):
        sim, device = make_stack()
        scrubber = self.build(sim, device)
        with pytest.raises(ValueError):
            scrubber.throughput(0)
        scrubber.start()
        sim.run(until=0.1)
        assert scrubber.bytes_scrubbed > 0
        assert scrubber.throughput(0.1) == scrubber.bytes_scrubbed / 0.1

    def _drained(self):
        """Bad sectors in the first and fourth extents, stopped gracefully
        while the first extent's remediation is still running."""
        sim, device, faults = fault_stack(
            faults_errors=[(0.0, 70), (0.0, 71), (0.0, 500)]
        )
        scrubber = self.build(sim, device, remediation=RemediationPolicy())
        process = scrubber.start()
        sim.run(until=0.1)
        assert (scrubber.errors_seen, scrubber.sectors_remapped) == (1, 0)
        scrubber.request_stop()
        sim.run(until=process)
        return scrubber, device, faults

    def test_request_stop_finishes_every_lifecycle(self):
        scrubber, _, faults = self._drained()
        # The lifecycle in flight ends; the next extent is never begun.
        assert scrubber.sectors_remapped == 2
        assert sorted(faults.log.remapped) == [70, 71]
        assert faults.log.scrub_lifecycle_complete()
        assert faults.active_count == 1

    def test_counters_match_the_device_log(self):
        scrubber, device, _ = self._drained()
        logged = device.log.requests("scrubber")
        assert scrubber.remediation_stats.split_verifies > 0
        assert scrubber.requests_issued == len(logged)
        assert scrubber.bytes_scrubbed == SECTOR_SIZE * sum(
            request.command.sectors for request in logged
        )

    def test_an_empty_pass_raises(self):
        sim, device = make_stack()
        self.build(sim, device, _EmptyPass(), **self.one_pass).start()
        with pytest.raises(RuntimeError, match="empty pass"):
            sim.run(until=1.0)


class TestSequentialScrubOrder:
    def test_covers_disk_in_order(self):
        algorithm = SequentialScrub()
        algorithm.reset(100, 32)
        extents = []
        while True:
            extent = algorithm.next_extent()
            if extent is None:
                break
            extents.append(extent)
        assert extents == [(0, 32), (32, 32), (64, 32), (96, 4)]

    def test_reset_restarts(self):
        algorithm = SequentialScrub()
        algorithm.reset(64, 32)
        algorithm.next_extent()
        algorithm.reset(64, 32)
        assert algorithm.next_extent() == (0, 32)

    def test_invalid_reset(self):
        with pytest.raises(ValueError):
            SequentialScrub().reset(0, 32)


class TestStaggeredScrubOrder:
    def test_one_region_equals_sequential(self):
        staggered = StaggeredScrub(regions=1)
        sequential = SequentialScrub()
        staggered.reset(1000, 64)
        sequential.reset(1000, 64)
        while True:
            a, b = staggered.next_extent(), sequential.next_extent()
            assert a == b
            if a is None:
                break

    def test_round_robin_across_regions(self):
        algorithm = StaggeredScrub(regions=4)
        algorithm.reset(400, 10)
        first_round = [algorithm.next_extent() for _ in range(4)]
        assert first_round == [(0, 10), (100, 10), (200, 10), (300, 10)]
        second_round = [algorithm.next_extent() for _ in range(4)]
        assert second_round == [(10, 10), (110, 10), (210, 10), (310, 10)]

    @pytest.mark.parametrize("total,step,regions", [
        (1000, 7, 3),
        (1000, 64, 128),
        (999, 10, 10),
        (17, 5, 4),
        (100, 100, 7),
    ])
    def test_exact_coverage(self, total, step, regions):
        algorithm = StaggeredScrub(regions=regions)
        algorithm.reset(total, step)
        seen = set()
        while True:
            extent = algorithm.next_extent()
            if extent is None:
                break
            lbn, sectors = extent
            for sector in range(lbn, lbn + sectors):
                assert sector not in seen
                seen.add(sector)
        assert seen == set(range(total))

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            StaggeredScrub(regions=0)


class TestScrubberFramework(ScrubberContract):
    invalid = ({"delay": -1}, {"delay_mode": "sometimes"}, {"max_passes": 0})
    one_pass = {"max_passes": 1}

    def build(self, sim, device, algorithm=None, **kwargs):
        return Scrubber(sim, device, algorithm or SequentialScrub(), **kwargs)

    def test_full_pass_counts(self):
        sim, device = make_stack()
        scrubber = Scrubber(
            sim, device, SequentialScrub(), request_bytes=64 * 1024,
            max_passes=1,
        )
        process = scrubber.start()
        sim.run(until=process)
        assert scrubber.passes_completed == 1
        assert scrubber.bytes_scrubbed == device.drive.capacity_bytes
        total = device.drive.total_sectors
        expected = -(-total // 128)
        assert scrubber.requests_issued == expected

    def test_multiple_passes(self):
        sim, device = make_stack()
        scrubber = Scrubber(
            sim, device, StaggeredScrub(regions=4), max_passes=3,
        )
        process = scrubber.start()
        sim.run(until=process)
        assert scrubber.passes_completed == 3
        assert scrubber.bytes_scrubbed == 3 * device.drive.capacity_bytes

    def test_gap_delay_slows_scrubber(self):
        rates = {}
        for delay in (0.0, 0.016):
            sim, device = make_stack()
            scrubber = Scrubber(
                sim, device, SequentialScrub(), delay=delay, delay_mode="gap",
            )
            scrubber.start()
            sim.run(until=2.0)
            rates[delay] = scrubber.bytes_scrubbed
        assert rates[0.016] < rates[0.0] / 2

    def test_interval_mode_reaches_size_over_delay(self):
        """The paper's 3.9 MB/s = 64 KB / 16 ms user-level result."""
        sim, device = make_stack(spec=hitachi_ultrastar_15k450())
        scrubber = Scrubber(
            sim, device, SequentialScrub(), request_bytes=64 * 1024,
            delay=0.016, delay_mode="interval", soft_barrier=True,
        )
        scrubber.start()
        sim.run(until=10.0)
        mbps = scrubber.throughput(10.0) / 1e6
        assert mbps == pytest.approx(65536 / 0.016 / 1e6, rel=0.05)

    def test_gap_mode_pays_service_time(self):
        """Kernel-style delay: size / (delay + service) ~= 3 MB/s."""
        sim, device = make_stack(spec=hitachi_ultrastar_15k450())
        scrubber = Scrubber(
            sim, device, SequentialScrub(), request_bytes=64 * 1024,
            delay=0.016, delay_mode="gap",
        )
        scrubber.start()
        sim.run(until=10.0)
        mbps = scrubber.throughput(10.0) / 1e6
        assert 2.5 < mbps < 3.6

    def test_scrub_requests_tagged_and_classed(self):
        sim, device = make_stack()
        scrubber = Scrubber(
            sim, device, SequentialScrub(), priority=PriorityClass.IDLE,
            max_passes=1,
        )
        process = scrubber.start()
        sim.run(until=process)
        scrub_requests = device.log.requests("scrubber")
        assert scrub_requests
        assert all(r.priority is PriorityClass.IDLE for r in scrub_requests)
        from repro.disk.commands import Opcode

        assert all(
            r.command.opcode is Opcode.VERIFY for r in scrub_requests
        )


class TestScrubberWithForeground:
    def test_idle_class_protects_foreground(self):
        """Foreground throughput with an Idle-class scrubber stays close
        to the no-scrubber baseline (the Fig. 6 story for CFQ/gated)."""
        horizon = 20.0

        def run(with_scrubber):
            sim = Simulation()
            device = BlockDevice(
                sim,
                Drive(hitachi_ultrastar_15k450(), cache_enabled=False),
                CFQScheduler(idle_gate=0.010),
            )
            streams = RandomStreams(seed=3)
            SequentialReader(sim, device, streams.get("fg")).start()
            if with_scrubber:
                Scrubber(
                    sim, device, SequentialScrub(),
                    priority=PriorityClass.IDLE,
                ).start()
            sim.run(until=horizon)
            return device.log.bytes_completed("foreground")

        baseline = run(False)
        with_scrub = run(True)
        assert with_scrub > 0.7 * baseline

    def test_same_priority_scrubber_hurts_foreground(self):
        horizon = 20.0

        def run(priority):
            sim = Simulation()
            device = BlockDevice(
                sim,
                Drive(hitachi_ultrastar_15k450(), cache_enabled=False),
                CFQScheduler(idle_gate=0.010),
            )
            streams = RandomStreams(seed=3)
            SequentialReader(sim, device, streams.get("fg")).start()
            Scrubber(
                sim, device, SequentialScrub(), priority=priority,
            ).start()
            sim.run(until=horizon)
            return device.log.bytes_completed("foreground")

        idle = run(PriorityClass.IDLE)
        default = run(PriorityClass.BE)
        assert default < 0.8 * idle


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The steps of a scrub lifecycle a scrubber takes by calling them: the
#: remediation of a detected error and the pass telemetry.  With a
#: ``VERIFY`` built into an ``IORequest`` they are made in one module:
#: the scrubber base class, whatever paces it.
LIFECYCLE = {
    "remediate_extent", "scrub_pass_started", "scrub_pass_completed", "scrub_progress",
}
VERIFY_REQUEST = "IORequest(DiskCommand.verify)"
LIFECYCLE_MODULE = "core/scrubber.py"


def _is_verify_command(node):
    """``DiskCommand.verify(...)``, also reached through a module path."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
    return node.func.attr == "verify" and owner == "DiskCommand"


def _lifecycle_steps(tree):
    """The lifecycle steps ``tree`` takes: calls to a :data:`LIFECYCLE`
    name (directly, as a method or under an import alias) and
    ``IORequest``s built around a ``DiskCommand.verify``.  Definitions,
    plain imports and docstrings take no step."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in LIFECYCLE and alias.asname
    }
    steps = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        name = aliases.get(name, name)
        if name in LIFECYCLE:
            steps.append(name)
        elif name == "IORequest" and any(
            _is_verify_command(arg)
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        ):
            steps.append(VERIFY_REQUEST)
    return steps


class TestOneScrubLifecycle:
    def test_only_the_scrubber_base_takes_lifecycle_steps(self):
        files = sorted(SRC.rglob("*.py"))
        assert len(files) > 50  # the walk found the package
        where = {}
        for path in files:
            for step in _lifecycle_steps(ast.parse(path.read_text())):
                where.setdefault(step, set()).add(path.relative_to(SRC).as_posix())
        assert where == {
            step: {LIFECYCLE_MODULE} for step in [*LIFECYCLE, VERIFY_REQUEST]
        }

    @pytest.mark.parametrize("source, steps", [
        ("yield from remediate_extent(sim, device, lbn, n, policy, submit, stats)",
         ["remediate_extent"]),
        ("sink.scrub_pass_started(now, source, 0)", ["scrub_pass_started"]),
        ("self._telemetry.scrub_progress(now, source, 0.5)", ["scrub_progress"]),
        ("from repro.faults.remediation import remediate_extent as fix\nfix(*args)",
         ["remediate_extent"]),
        ("IORequest(DiskCommand.verify(lbn, n), priority=BE)", [VERIFY_REQUEST]),
        ("IORequest(command=DiskCommand.verify(lbn, n))", [VERIFY_REQUEST]),
        ("IORequest(commands.DiskCommand.verify(lbn, n))", [VERIFY_REQUEST]),
        ("IORequest(DiskCommand.read(lbn, n))", []),
        ("drive.service(DiskCommand.verify(lbn, n), now)", []),
        ("from repro.faults.remediation import remediate_extent", []),
        ("def scrub_progress(self, now, source, fraction): pass", []),
        ('"""sink.scrub_pass_completed(now, source, 0, 0)"""', []),
    ])
    def test_the_walk_sees_what_it_should(self, source, steps):
        assert _lifecycle_steps(ast.parse(source)) == steps
