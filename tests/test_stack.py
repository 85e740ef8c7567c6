"""The scenario layer: one assembler, and only one (DESIGN section 18).

:class:`repro.analysis.stack.ScrubStack` is the single place that
decides which scheduler sits under which scrubber, in what order the
processes start, and how a run is drained.  These tests pin those
decisions, pin what each of the five experiments passes to it, and
fail when a second hand-built stack appears under ``src/repro``.
"""

import ast
import gc
import hashlib
import pathlib

import pytest

from repro.analysis import stack as stack_module
from repro.analysis.detection import run_detection_experiment, shrunk_spec
from repro.analysis.impact import run_impact_experiment
from repro.analysis.replay_cdf import replay_with_scrubber
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.analysis.throughput import standalone_scrub_throughput
from repro.cli import main
from repro.core.policies.device import WaitingScrubber
from repro.core.scrubber import Scrubber
from repro.core.sequential import SequentialScrub
from repro.core.staggered import StaggeredScrub
from repro.disk.drive import Drive
from repro.disk.models import PRESETS
from repro.faults import RemediationPolicy, build_model
from repro.parallel.cache import ResultCache, canonicalize
from repro.sched.cfq import CFQScheduler
from repro.sched.noop import NoopScheduler
from repro.traces import generate_trace
from repro.verify.scenario import FAMILIES, run_scenario
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import RandomReader

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SPEC = shrunk_spec(PRESETS["ultrastar"](), cylinders=30)


def _trace(duration=1.0):
    return generate_trace("TPCdisk66", duration=duration, seed=0)


def _stack(setup=None, **kwargs):
    kwargs.setdefault("idle_gate", 0.010)
    kwargs.setdefault("cache_enabled", True)
    return ScrubStack(SPEC, setup, **kwargs)


class TestRuleTable:
    def test_waiting_runs_on_a_fifo_device(self):
        built = _stack(ScrubberSetup("waiting", threshold=0.02))
        assert isinstance(built.device.scheduler, NoopScheduler)
        assert isinstance(built.scrubber, WaitingScrubber)
        assert built.scrubber.threshold == 0.02

    @pytest.mark.parametrize("algorithm", ["sequential", "staggered"])
    @pytest.mark.parametrize("user_level", [False, True])
    def test_everything_else_runs_under_cfq(self, algorithm, user_level):
        built = _stack(
            ScrubberSetup(algorithm, regions=4, user_level=user_level),
            idle_gate=0.003,
        )
        assert isinstance(built.device.scheduler, CFQScheduler)
        assert built.device.scheduler.idle_gate == 0.003
        assert type(built.scrubber) is Scrubber
        assert type(built.scrubber.algorithm).__name__.lower().startswith(algorithm)
        assert built.scrubber.soft_barrier is user_level
        assert (built.scrubber.delay_mode == "interval") is user_level

    def test_a_bare_foreground_runs_under_cfq(self):
        built = _stack()
        assert isinstance(built.device.scheduler, CFQScheduler)
        assert built.scrubber is None and built.faults is None

    def test_unknown_algorithm_names_the_valid_ones(self):
        with pytest.raises(ValueError) as error:
            _stack(ScrubberSetup("zigzag"))
        for name in ("zigzag", "sequential", "staggered", "waiting"):
            assert name in str(error.value)

    def test_no_default_for_what_the_experiments_disagree_on(self):
        with pytest.raises(TypeError):
            ScrubStack(SPEC, cache_enabled=True)  # no idle gate
        with pytest.raises(TypeError):
            ScrubStack(SPEC, idle_gate=0.010)  # no cache flag
        with pytest.raises(ValueError, match="threshold"):
            _stack(ScrubberSetup("waiting"))
        plan = build_model("bernoulli").generate(
            Drive(SPEC).total_sectors, 1.0, 0
        )
        with pytest.raises(ValueError, match="spare_sectors"):
            _stack(fault_plan=plan)


class TestStartOrder:
    def test_foreground_before_scrubber(self):
        built = _stack(ScrubberSetup())
        sim = built.sim
        base = sim._seq
        built.replay(_trace())
        assert sim._seq == base + 1  # the foreground's init event
        real_start, around = built.scrubber.start, []

        def start():
            around.append(sim._seq)
            process = real_start()
            around.append(sim._seq)
            return process

        built.scrubber.start = start
        built.run(0.2)
        assert around == [base + 1, base + 2]  # started in run(), second

    def test_a_stack_without_a_scrubber_just_runs(self):
        built = _stack()
        built.replay(_trace())
        built.run(0.5)
        assert built.sim.now == 0.5
        assert built.device.log.count("foreground") > 0


class TestDrain:
    def _run(self, drain):
        plan = build_model("bernoulli", per_sector_probability=0.002).generate(
            Drive(SPEC).total_sectors, 0.3, 0
        )
        built = _stack(
            ScrubberSetup(regions=8),
            fault_plan=plan,
            spare_sectors=64,
            remediation=RemediationPolicy(),
        )
        built.reader("random", 0, 0.02)
        built.run(0.3, drain=drain)
        return built, plan

    def test_drain_finishes_the_lifecycle(self):
        built, plan = self._run(drain=True)
        scrubber, log = built.scrubber, built.device.log
        assert built.sim.now > 0.3
        assert scrubber.requests_issued == log.count("scrubber")
        assert scrubber.errors_seen > 0
        assert built.faults.log.scrub_lifecycle_complete()

    def test_no_drain_stops_at_the_horizon(self):
        built, plan = self._run(drain=False)
        scrubber, log = built.scrubber, built.device.log
        assert built.sim.now == 0.3
        # Seed 0 cuts a verify in flight: issued, not completed.
        assert scrubber.requests_issued == log.count("scrubber") + 1
        assert not built.faults.log.scrub_lifecycle_complete()
        drained, _ = self._run(drain=True)
        assert len(drained.device.log) > len(log)

    def test_run_closes_the_fault_log_at_the_horizon(self):
        plan = build_model("bernoulli", per_sector_probability=0.002).generate(
            Drive(SPEC).total_sectors, 0.3, 0
        )
        built = _stack(fault_plan=plan, spare_sectors=64)
        built.run(0.3)  # no command ever reaches the drive
        assert len(built.faults.log.onsets) == len(plan.errors) > 0


#: The Fig. 7 legend, as ``replay_with_scrubber`` keywords.
FIG7 = {
    "none": {},
    "cfq-sequential": {"scrubber": ScrubberSetup(algorithm="sequential")},
    "cfq-staggered-128": {
        "scrubber": ScrubberSetup(algorithm="staggered", regions=128)
    },
    "waiting-100ms": {"waiting": {"threshold": 0.1, "request_bytes": 64 * 1024}},
}
#: A latent-error density for sub-second horizons on the 30-cylinder
#: drive (the model's defaults are calibrated for disk-days).
DENSE_BURSTS = {"inter_burst_mean": 0.08, "in_burst_time_mean": 0.0016}


def _growth_per_call(call, calls=3):
    """Tracked objects each further ``call()`` leaves behind once one
    warm-up call has filled the first-use caches, with the collector
    off: only reference counting can free the finished stack."""
    call()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(calls):
            call()
        return (len(gc.get_objects()) - before) / calls
    finally:
        gc.enable()


class TestAFinishedStackIsFreedWhenDropped:
    """No reference cycle survives ``run()``: serial experiments in one
    process do not grow it (``make stack-budget`` is the RSS side)."""

    @pytest.mark.parametrize("config", sorted(FIG7))
    def test_replay_with_scrubber(self, config):
        trace = _trace(0.5)
        assert _growth_per_call(
            lambda: replay_with_scrubber(trace, SPEC, **FIG7[config])
        ) <= 16

    @pytest.mark.parametrize("foreground", ["reader", "trace"])
    @pytest.mark.parametrize("algorithm", ["sequential", "staggered", "waiting"])
    def test_run_detection_experiment(self, algorithm, foreground):
        # A foreground light enough that an Idle-class scrubber runs.
        light = generate_trace("TPCdisk66", duration=0.5, seed=0, rate_scale=0.1)
        source = {"foreground": True} if foreground == "reader" else {"trace": light}

        def call():
            result = run_detection_experiment(
                SPEC, algorithm=algorithm, horizon=0.5, seed=0,
                model_params=DENSE_BURSTS, **source,
            )
            # Fault plan, remediation and the drain all took part.
            assert result.sectors_remapped > 0

        assert _growth_per_call(call) <= 16

    @pytest.mark.parametrize(
        "scrubber", [None, ScrubberSetup()], ids=["alone", "scrubbed"]
    )
    @pytest.mark.parametrize("workload", ["sequential", "random"])
    def test_run_impact_experiment(self, workload, scrubber):
        spec = PRESETS["ultrastar"]()  # room for the reader's 8 MB chunks
        assert _growth_per_call(
            lambda: run_impact_experiment(spec, workload, scrubber, horizon=0.5)
        ) <= 16

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_scenario(self, family):
        assert _growth_per_call(
            lambda: run_scenario(family=family, algorithm="staggered", horizon=0.3)
        ) <= 16

    def test_standalone_scrub_throughput(self):
        # The second assembly site: every point of Figs. 4, 5a, 5b.
        spec = PRESETS["ultrastar"]()
        rates = []
        assert _growth_per_call(
            lambda: rates.append(
                standalone_scrub_throughput(spec, StaggeredScrub(128), horizon=2.0)
            )
        ) <= 16
        assert len(set(rates)) == 1 and rates[0] > 0


class TestRelease:
    def _ran(self, setup=ScrubberSetup(regions=8)):
        plan = build_model("bursts", **DENSE_BURSTS).generate(
            Drive(SPEC).total_sectors, 0.5, 0
        )
        built = _stack(
            setup,
            fault_plan=plan,
            spare_sectors=4096,
            remediation=RemediationPolicy(),
            max_log_records=50,
        )
        built.replay(
            generate_trace("TPCdisk66", duration=0.5, seed=0, rate_scale=0.1)
        )
        built.run(0.5, drain=True)
        return built

    def test_what_the_callers_read_afterwards_is_still_there(self):
        built = self._ran()
        assert built.sim.now >= 0.5 and built.sim._seq > 0
        assert len(built.device.log) == 50 and built.device.log.dropped > 0
        assert built.device.log.response_times("foreground").size > 0
        assert built.scrubber.requests_issued > 0
        assert built.scrubber.bytes_scrubbed > 0
        assert built.scrubber.remediation_stats.sectors_remapped > 0
        assert built.scrubber.sectors_remapped > 0
        assert len(built.faults.log.records) > 0
        assert built.drive.cache.evictions >= 0
        assert built.foreground.submitted > 0

    def test_a_stack_runs_once(self):
        built = self._ran()
        with pytest.raises(RuntimeError, match="released"):
            built.run(1.0)
        with pytest.raises(RuntimeError, match="released"):
            built.replay(_trace())
        with pytest.raises(RuntimeError, match="released"):
            built.reader("random", 0, 0.02)
        with pytest.raises(RuntimeError, match="closed"):
            built.sim.run(until=2.0)

    def test_the_processes_it_started_are_abandoned_not_finished(self):
        built = self._ran(ScrubberSetup("waiting", threshold=0.005))
        assert built.device.dispatcher.is_alive
        assert built.device.observers == []  # the Waiting scrubber's finally ran
        assert built.sim.peek() == float("inf")


class TestForegroundHandle:
    def test_none_until_one_is_started(self):
        built = _stack(ScrubberSetup())
        assert built.foreground is None
        built.replay(_trace())
        assert isinstance(built.foreground, TraceReplayer)
        built.run(0.2)
        assert 0 < built.foreground.submitted <= len(_trace())

    def test_the_reader_can_be_stopped_and_read(self):
        built = _stack()
        built.reader("random", 0, 0.02)
        assert isinstance(built.foreground, RandomReader)
        built.sim.run(until=0.1)
        issued = built.foreground.requests_issued
        assert issued > 0
        built.foreground.stop()
        built.run(0.3)
        assert built.foreground.requests_issued == issued

    def test_a_second_foreground_is_refused(self):
        built = _stack()
        built.reader("sequential", 0, 0.02)
        with pytest.raises(RuntimeError, match="already has a foreground"):
            built.replay(_trace())
        with pytest.raises(RuntimeError, match="already has a foreground"):
            built.reader("random", 0, 0.02)
        with pytest.raises(ValueError, match="unknown workload"):
            _stack().reader("zigzag", 0, 0.02)


#: Constructors and calls that make a stack, and the only modules under
#: ``src/repro`` that may use them: the assembler and the scrubber-alone
#: throughput measurement (a different machine: no foreground, no
#: policy rule, the algorithm passed as an instance).  ``sim/vector.py``
#: constructs an engine inside ``make_simulation``, the factory only
#: ``bench/`` calls.
ASSEMBLY = {
    "BlockDevice": {"analysis/stack.py", "analysis/throughput.py"},
    "NoopScheduler": {"analysis/stack.py", "analysis/throughput.py"},
    "Scrubber": {"analysis/stack.py", "analysis/throughput.py"},
    "Simulation": {"analysis/stack.py", "analysis/throughput.py", "sim/vector.py"},
    "CFQScheduler": {"analysis/stack.py"},
    "WaitingScrubber": {"analysis/stack.py"},
    "MediaFaults": {"analysis/stack.py"},
    "TraceReplayer": {"analysis/stack.py"},
    "request_stop": {"analysis/stack.py"},
}


def _assembly_calls(tree):
    """Names from :data:`ASSEMBLY` that ``tree`` calls (docstrings are
    strings, not calls, so examples in them do not count)."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ASSEMBLY:
                called.add(name)
    return called


class TestOneAssembler:
    def test_nothing_else_under_src_builds_a_stack(self):
        where = {name: set() for name in ASSEMBLY}
        files = sorted(SRC.rglob("*.py"))
        assert len(files) > 50  # the walk found the package
        for path in files:
            for name in _assembly_calls(ast.parse(path.read_text())):
                where[name].add(path.relative_to(SRC).as_posix())
        assert where == ASSEMBLY

    @pytest.mark.parametrize("source, names", [
        ("device = BlockDevice(sim, drive, CFQScheduler())", {"BlockDevice", "CFQScheduler"}),
        ("from repro.faults import MediaFaults\nx = faults.MediaFaults(plan)", {"MediaFaults"}),
        ("scrubber.request_stop()", {"request_stop"}),
        ('"""drive.install_faults(MediaFaults(plan))"""', set()),
        ("from repro.sched.device import BlockDevice", set()),
    ])
    def test_the_walk_sees_what_it_should(self, source, names):
        assert _assembly_calls(ast.parse(source)) == names

    def test_trace_command_reaches_below_the_assembler_for_nothing(self):
        tree = ast.parse((SRC / "cli" / "trace.py").read_text())
        imported = [
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        assert "repro.analysis.stack" in imported
        for module in imported:
            assert module.split(".")[:2] not in (
                ["repro", "sched"], ["repro", "core"], ["repro", "workloads"],
            )


#: What went with the ``kernel`` knob.  ``repro.sim`` still holds the
#: factory and the timer store for ``bench/``; nothing above it may name
#: them, or the second drive-timing model that hung off the knob.
KNOB_NAMES = {
    "make_simulation", "KERNELS", "VectorSimulation", "UnsupportedKernelFeature",
    "schedule_timers", "batched_media_times", "locate_batch",
}


def _knob_uses(tree):
    """Where ``tree`` takes, passes or names the kernel knob."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            if any(
                arg.arg == "kernel"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
            ):
                found.append(f"parameter kernel of {getattr(node, 'name', 'lambda')}")
        elif isinstance(node, ast.Call):
            if any(keyword.arg == "kernel" for keyword in node.keywords):
                found.append("kernel= keyword")
        elif isinstance(node, ast.Name) and node.id in KNOB_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in KNOB_NAMES:
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if {alias.name.rpartition(".")[2], alias.asname} & KNOB_NAMES:
                    found.append(f"import {alias.name}")
    return found


class TestTheKernelKnobStaysDeleted:
    def test_nothing_above_the_sim_package_takes_or_names_it(self):
        files = [
            path for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC).parts[0] != "sim"
        ]
        assert len(files) > 50
        uses = {
            path.relative_to(SRC).as_posix(): found
            for path in files
            if (found := _knob_uses(ast.parse(path.read_text())))
        }
        assert uses == {}

    @pytest.mark.parametrize("source, count", [
        ("def run(spec, kernel='reference'): pass", 1),
        ("def run(spec, *, kernel): pass", 1),
        ("ScrubStack(spec, kernel=args.kernel)", 1),
        ("from repro.sim import make_simulation as build", 1),
        ("from repro.sim.vector import UnsupportedKernelFeature", 1),
        ("sim.schedule_timers(delays)", 1),
        ("drive.batched_media_times(lbn, n, now, head)", 1),
        ("if kernel not in KERNELS: raise ValueError(kernel)", 1),
        ("sim = Simulation(telemetry=sink)", 0),
        ('"""``kernel="vector"`` is gone."""', 0),
        ("signatures['fleet-kernel'] = check_fleet_kernel(seed)", 0),
    ])
    def test_the_walk_sees_what_it_should(self, source, count):
        assert len(_knob_uses(ast.parse(source))) == count


@pytest.fixture
def assemblies(monkeypatch):
    """Every ``ScrubStack`` built, as ``(setup, kwargs, drain)`` rows."""
    rows = []
    real_init, real_run = ScrubStack.__init__, ScrubStack.run

    def init(self, spec, setup=None, **kwargs):
        rows.append([setup, kwargs, None])
        self._row = rows[-1]
        real_init(self, spec, setup, **kwargs)

    def run(self, horizon, drain=False):
        self._row[2] = drain
        real_run(self, horizon, drain)

    monkeypatch.setattr(ScrubStack, "__init__", init)
    monkeypatch.setattr(ScrubStack, "run", run)
    return rows


def _passed(row):
    setup, kwargs, drain = row
    return (
        kwargs["idle_gate"],
        setup.threshold if setup is not None else None,
        kwargs.get("spare_sectors"),
        kwargs["cache_enabled"],
        drain,
    )


class TestTheOracleRunsProductionCode:
    """One ``ScrubStack`` per run at every site, with the values that
    site has always used: (idle gate, Waiting threshold, spare pool,
    drive cache, drains)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_scenario(self, family, assemblies):
        run_scenario(family=family, algorithm="waiting", horizon=0.2)
        (row,) = assemblies
        assert _passed(row) == (0.002, 0.005, 512, True, True)
        assert (row[1]["fault_plan"] is not None) == (family == "fault-injected")

    def test_run_detection_experiment(self, assemblies):
        run_detection_experiment(SPEC, algorithm="waiting", horizon=0.2)
        (row,) = assemblies
        assert _passed(row) == (0.010, 0.01, 4096, True, True)

    @pytest.mark.parametrize("config, threshold", [
        ({}, None),
        ({"scrubber": ScrubberSetup()}, None),
        ({"waiting": {}}, 0.1),
        ({"waiting": {"threshold": 0.03}}, 0.03),
    ])
    def test_replay_with_scrubber(self, config, threshold, assemblies):
        replay_with_scrubber(_trace(0.3), SPEC, **config)
        (row,) = assemblies
        assert _passed(row) == (0.010, threshold, None, False, False)
        assert (row[0] is None) == (config == {})

    def test_run_impact_experiment(self, assemblies):
        run_impact_experiment(SPEC, "random", ScrubberSetup(), horizon=0.2)
        (row,) = assemblies
        assert _passed(row) == (0.010, None, None, False, False)

    def test_trace_command(self, assemblies, tmp_path, capsys):
        assert main([
            "trace", "--cylinders", "30", "--inject", "--foreground",
            "--horizon", "0.2", "--algorithm", "waiting",
            "-o", str(tmp_path / "trace.json"),
        ]) == 0
        capsys.readouterr()
        (row,) = assemblies
        # CFQScheduler's, WaitingScrubber's and MediaFaults' own defaults.
        assert _passed(row) == (0.010, 0.1, 1024, True, True)


#: What the full stack computes on the Fig. 7 drive, recorded at the
#: commit before the per-command path (``repro.disk`` and
#: ``sched/device.py``) was rewritten for speed.  A seek, rotation,
#: transfer or cache decision that moves by one ulp, or an event that
#: fires in another order, changes one of them.
FULL_STACK_DIGESTS = {
    "replay/MSRsrc11/none": "02d9143101ac1ad40957c42f2b41917c593d6d58cc456f9a0f6d48b1fb09defb",
    "replay/MSRsrc11/cfq-sequential": "ffa7cb6e4fd6960205c03a967c48192b3922d1c3e819f34cb1bb6fd74e9d24b9",
    "replay/MSRsrc11/cfq-staggered-128": "de4a3d41133cf504093c8ce22c636a3285833f23e87060cd52c15c2406ce99c7",
    "replay/MSRsrc11/waiting-100ms": "d254bf0ea6a6722a7ace58d81275d16d8fa64ff91821f91dd5c5f5c50cf32cda",
    "replay/TPCdisk66/none": "ec94820eaf0959be62aa2e05f25cf09bef87359fbab33003c8d71b4cd4ace8cb",
    "replay/TPCdisk66/cfq-sequential": "07bdfd525a6490530423d91303b82c4a6714e6b7724a19a44d554f8337515f8f",
    "replay/TPCdisk66/cfq-staggered-128": "07bdfd525a6490530423d91303b82c4a6714e6b7724a19a44d554f8337515f8f",
    "replay/TPCdisk66/waiting-100ms": "9890cc15cff56fe8b96ed95abb8b01de4bbe1e971846187cb69854e1d77e7aff",
    "throughput/sequential": "0x1.bc00000000000p+23",
    "throughput/staggered-128": "0x1.3780000000000p+24",
    "service_model/caviar": "ebb065398c6575579b6c4c3f437a2af62d0b61a800cbb87dab5439ad2c138586",
    "service_model/deskstar": "de04a3be6097c38357726a0bb5343a6b469bec1e8ec7574587c534a6957d7e73",
    "service_model/map3367np": "c44ff1ce721d9aadd48b58bc1c9da84e3cdb71f9f1b0244f09bb586ba3d24577",
    "service_model/max3073rc": "c77c496f80f8b93044aca703e31b8f457c7a729881cfda96f6681eb8b22dcf66",
    "service_model/ultrastar": "090276f69248997df3fad3f0befb4f0a4f643941eca414d29ab936ec9ff19852",
}


def test_the_full_stack_computes_the_recorded_bits():
    ultrastar = PRESETS["ultrastar"]
    seen = {}
    for name, duration in (("MSRsrc11", 60.0), ("TPCdisk66", 2.0)):
        trace = generate_trace(name, duration=duration, seed=7)
        for config, kwargs in FIG7.items():
            result = replay_with_scrubber(trace, ultrastar(), idle_gate=0.010, **kwargs)
            digest = hashlib.sha256(result.fg_response_times.tobytes())
            digest.update(repr(
                (result.fg_requests, result.scrub_requests, result.scrub_bytes)
            ).encode())
            seen[f"replay/{name}/{config}"] = digest.hexdigest()
    for label, algorithm in (
        ("sequential", SequentialScrub()), ("staggered-128", StaggeredScrub(128)),
    ):
        rate = standalone_scrub_throughput(ultrastar(), algorithm, horizon=2.0)
        seen[f"throughput/{label}"] = float(rate).hex()
    for preset in sorted(PRESETS):
        model = ScrubServiceModel.from_spec(PRESETS[preset]())
        seen[f"service_model/{preset}"] = hashlib.sha256(
            model._sizes.tobytes() + model._times.tobytes()
        ).hexdigest()
    assert seen == FULL_STACK_DIGESTS


class TestCacheKeysDidNotMove:
    """``canonicalize()`` names an object by module, class and fields,
    so moving code can move ``ResultCache`` keys.  Literals captured at
    the commit before the assembler existed; the detection one moved
    once since, when ``detection_sweep_task`` lost its ``kernel``
    parameter (it is the old key set with that one entry dropped)."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        seen = []
        real = ResultCache.key

        def key(cache, fn, params):
            identity = (fn.__module__, fn.__qualname__, canonicalize(params))
            seen.append(hashlib.sha256(repr(identity).encode()).hexdigest())
            return real(cache, fn, params)

        monkeypatch.setattr(ResultCache, "key", key)
        return lambda: hashlib.sha256("\n".join(sorted(seen)).encode()).hexdigest()

    def test_detection_sweep_task(self, keyed, tmp_path, capsys):
        assert main([
            "detect", "--horizon", "0.5", "--cylinders", "30",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert keyed() == (
            "db00681bf691f12fd0a3beebb5fe16d11ae3be7f61eb21054f01e9356416a91d"
        )

    def test_table_iii_tasks(self, keyed, tmp_path, capsys):
        assert main([
            "optimize", "--synthetic", "MSRusr2", "--duration", "900",
            "--goals-ms", "2.0", "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert keyed() == (
            "2d7422d21a4113b89e3ea2b0f03cd2ca4d108cb5edddeee06f4066afd1684f85"
        )

    def test_the_setup_is_still_importable_from_impact(self):
        from repro.analysis.impact import ScrubberSetup as from_impact

        assert from_impact is stack_module.ScrubberSetup
