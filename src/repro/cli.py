"""Command-line interface: ``python -m repro <command>``.

Thirteen commands cover the library's main workflows:

* ``generate``  — write a synthetic catalog trace to CSV;
* ``corpus``    — build, list and re-hash an on-disk columnar trace
  corpus (``corpus build`` / ``list`` / ``verify``);
* ``analyze``   — Section V-A statistics for a trace (idle stats,
  periodicity, tails, hazard);
* ``optimize``  — Table III: best (wait threshold, request size) for
  slowdown goals on a given drive, by successive-halving search, for
  one trace or every entry of a ``--corpus``;
* ``throughput`` — standalone scrub throughput for an algorithm/size;
* ``mlet``      — MLET by scrub order under bursty LSEs;
* ``detect``    — error detection/remediation under injected LSEs,
  with and without the ATA ``VERIFY`` cache bug;
* ``trace``     — run a scrub scenario with the telemetry recorder on
  and export a Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) plus a metrics summary;
* ``verify``    — correctness harness: fuzz seeded configurations
  through the runtime invariant checker and the differential oracle
  (``--self-test`` plants known bugs and asserts they are caught);
* ``fleet``     — fleet-scale reliability campaign: MTTDL and
  P(data loss) per scrub policy over tens of thousands of drives,
  with durable per-shard checkpoints (``--journal``), bit-identical
  resume (``--resume``), fault-tolerant supervised workers, and live
  observability (``--monitor``: progress lines, ``status.json``,
  event log, span trace, Prometheus textfile);
* ``report``    — render a campaign monitor's observability
  directory as a self-contained HTML run report;
* ``serve``     — campaign orchestration service: an HTTP job API
  over the fleet runner with a persistent queue;
* ``submit``    — submit a campaign to a running ``repro serve``
  (``--wait`` for its metrics, ``--status ID`` to report a job).

``throughput``, ``detect`` and ``optimize`` also take ``--telemetry``
(print a metrics summary table) and, where a simulation runs
in-process, ``--trace-out FILE`` (write the Chrome trace).

``optimize``, ``throughput``, ``detect``, ``trace`` and ``verify``
take ``--kernel {reference,vector}`` to select the simulation engine
backend.  Both backends are bit-identical where the vector kernel
supports the scenario; a scenario it does *not* support fails fast
with :class:`~repro.sim.vector.UnsupportedKernelFeature` and exit
code 2 — it never silently falls back to the reference kernel.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _load_trace(args):
    """Trace from --trace (CSV file) or --synthetic (catalog name)."""
    from repro.traces import generate_trace, read_csv_trace

    if args.trace:
        return read_csv_trace(
            args.trace, max_requests=getattr(args, "max_requests", None)
        )
    return generate_trace(
        args.synthetic, duration=args.duration, seed=args.seed
    )


def _drive_spec(name: str):
    from repro.disk.models import PRESETS

    if name not in PRESETS:
        raise SystemExit(
            f"unknown drive {name!r}; choose from {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]()


def _add_trace_source(
    parser: argparse.ArgumentParser, corpus: bool = False
) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="CSV trace file (canonical or MSR dialect)")
    source.add_argument(
        "--synthetic",
        metavar="NAME",
        help="synthetic catalog trace (e.g. MSRsrc11; see `repro generate --list`)",
    )
    if corpus:
        source.add_argument(
            "--corpus",
            metavar="DIR",
            help="on-disk trace corpus directory (built with "
            "`repro corpus build` or repro.traces.generate_corpus)",
        )
    parser.add_argument(
        "--duration", type=float, default=4 * 3600.0,
        help="synthetic trace length in seconds (default 4h)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-requests", type=int, default=None,
        help="stop parsing a --trace CSV after this many requests "
        "(huge traces load only the prefix an experiment needs)",
    )


def cmd_generate(args) -> int:
    from repro.traces import CATALOG, generate_trace, write_csv_trace

    if args.list:
        for name, spec in sorted(CATALOG.items()):
            print(f"{name:<12} {spec.collection:<16} {spec.description}")
        return 0
    if not args.name or not args.output:
        raise SystemExit("generate needs --name and --output (or --list)")
    trace = generate_trace(args.name, duration=args.duration, seed=args.seed)
    write_csv_trace(trace, args.output)
    print(f"wrote {len(trace):,} requests ({trace.duration / 3600:.2f} h) to {args.output}")
    return 0


def cmd_analyze(args) -> int:
    from repro.stats import (
        anova_period,
        expected_remaining,
        has_significant_autocorrelation,
        summarize_idle,
        usable_fraction,
    )
    from repro.stats.tails import idle_share_of_largest
    from repro.traces.idle import idle_intervals_from_trace

    trace = _load_trace(args)
    _, durations = idle_intervals_from_trace(
        trace, positioning=args.service_ms / 1e3
    )
    if len(durations) == 0:
        print("no idle intervals found (trace saturated under this service model)")
        return 1
    stats = summarize_idle(durations, span=trace.duration)
    print(f"trace: {trace.name or '<unnamed>'}")
    print(f"  requests: {len(trace):,} over {trace.duration / 3600:.2f} h")
    print(
        f"  idle: {stats.count:,} intervals, mean {stats.mean * 1e3:.2f} ms, "
        f"CoV {stats.cov:.1f} ({'~memoryless' if stats.is_memoryless_like else 'heavy-tailed'})"
    )
    print(f"  autocorrelated: {has_significant_autocorrelation(durations)}")
    print(
        f"  idle share of largest 15% of intervals: "
        f"{idle_share_of_largest(durations, 0.15):.0%}"
    )
    taus = np.array([1e-3, 1e-2, 1e-1, 1.0])
    remaining = expected_remaining(durations, taus)
    usable = usable_fraction(durations, taus)
    for tau, rem, use in zip(taus, remaining, usable):
        rem_txt = f"{rem:9.3f} s" if np.isfinite(rem) else "      n/a"
        print(
            f"  after {tau * 1e3:7.1f} ms idle: expect {rem_txt} more, "
            f"{use:.0%} usable"
        )
    if trace.duration >= 2 * 86400:
        result = anova_period(trace.requests_per_bin(3600.0))
        label = f"{result.period} h" if result.period > 1 else "none"
        print(f"  ANOVA period: {label}")
    return 0


def _build_runner(args, telemetry=None):
    """A SweepRunner from --workers/--cache/--cache-dir, or ``None``."""
    from repro.parallel import ResultCache, SweepRunner

    use_cache = args.cache or args.cache_dir
    if not args.workers and not use_cache and telemetry is None:
        return None
    cache = ResultCache(args.cache_dir or None) if use_cache else None
    return SweepRunner(workers=args.workers, cache=cache, telemetry=telemetry)


def cmd_corpus_build(args) -> int:
    from repro.traces.catalog import generate_corpus
    from repro.traces.store import TraceStoreError

    try:
        corpus = generate_corpus(
            args.out,
            names=args.names,
            duration=args.duration,
            seed=args.seed,
            repetitions=args.repetitions,
            chunk_requests=args.chunk_requests,
        )
    except (TraceStoreError, KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"built corpus at {corpus.root} ({len(corpus)} entries)")
    for name in corpus.names():
        row = corpus.describe(name)
        print(
            f"  {name:<12} {row['requests']:>12,} requests  "
            f"{row['duration'] / 3600:8.2f} h  {row['chunks']} chunks"
        )
    return 0


def cmd_corpus_list(args) -> int:
    from repro.traces.store import TraceCorpus, TraceStoreError

    try:
        corpus = TraceCorpus.open(args.dir)
    except TraceStoreError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'entry':<12} {'requests':>12}  {'hours':>8}  {'chunks':>6}  digest")
    for name in corpus.names():
        row = corpus.describe(name)
        print(
            f"{name:<12} {row['requests']:>12,}  "
            f"{row['duration'] / 3600:8.2f}  {row['chunks']:>6}  "
            f"{row['digest'][:12]}"
        )
    return 0


def cmd_corpus_verify(args) -> int:
    from repro.traces.store import (
        StoreIntegrityError,
        TraceCorpus,
        TraceStoreError,
    )

    try:
        corpus = TraceCorpus.open(args.dir)
    except TraceStoreError as exc:
        print(exc, file=sys.stderr)
        return 2
    failures = 0
    for name in corpus.names():
        try:
            corpus.entry(name).verify()
        except (StoreIntegrityError, TraceStoreError, OSError) as exc:
            failures += 1
            print(f"{name:<12} FAILED: {exc}", file=sys.stderr)
            continue
        print(f"{name:<12} ok")
    return 1 if failures else 0


def _build_tuner(args, durations, total_requests, span, model):
    """One workload's successive-halving tuner, shared by its goals.

    Returns ``tune(goal, runner) -> OptimalParameters``; building it
    once per workload lets the search sort the idle sample once however
    many goals are asked for.
    """
    from repro.core.search import SuccessiveHalvingSearch

    search = SuccessiveHalvingSearch(
        durations, total_requests, span, model,
        max_slowdown=args.max_slowdown_ms / 1e3,
        seed=args.search_seed,
        keep_min=args.budget,
    )
    return lambda goal, runner: search.search(goal, runner=runner).best


def _optimize_corpus(args) -> int:
    """Corpus-wide tuning table: one (threshold, size) row per entry."""
    import json

    from repro.analysis.service_model import ScrubServiceModel
    from repro.analysis.slowdown import SIM_METER
    from repro.traces.idle import idle_intervals_streaming
    from repro.traces.store import TraceCorpus, TraceStoreError

    try:
        corpus = TraceCorpus.open(args.corpus)
    except TraceStoreError as exc:
        print(exc, file=sys.stderr)
        return 2
    names = args.entries or corpus.names()
    for name in names:
        if name not in corpus:
            print(
                f"unknown corpus entry {name!r}; available: "
                f"{', '.join(corpus.names())}",
                file=sys.stderr,
            )
            return 2
    spec = _drive_spec(args.drive)
    if not args.json:
        print(f"measuring scrub service times on {spec.name}...")
    model = ScrubServiceModel.from_spec(spec, kernel=args.kernel)
    runner = _build_runner(args)
    payload = {
        "corpus": str(corpus.root),
        "drive": args.drive,
        "method": "search",
        "budget": args.budget,
        "goals_ms": list(args.goals_ms),
        "entries": {},
    }
    if not args.json:
        print(
            f"{'entry':<12} {'goal':>8}  {'threshold':>10}  {'request':>8}  "
            f"{'scrub':>10}"
        )
    for name in names:
        stored = corpus.entry(name)
        row = corpus.describe(name)
        positioning = row.get("service_positioning", args.service_ms / 1e3)
        _, durations = idle_intervals_streaming(
            stored.iter_chunks(), positioning=positioning
        )
        entry_out = {
            "digest": stored.digest(),
            "requests": len(stored),
            "idle_intervals": int(len(durations)),
            "goals": {},
        }
        payload["entries"][name] = entry_out
        if len(durations) == 0:
            if not args.json:
                print(f"{name:<12} no idle intervals")
            continue
        tune = _build_tuner(args, durations, len(stored), stored.duration, model)
        for goal_ms in args.goals_ms:
            before = SIM_METER.snapshot()
            try:
                best = tune(goal_ms / 1e3, runner)
            except ValueError:
                if not args.json:
                    print(f"{name:<12} {goal_ms:6.2f}ms  unattainable")
                entry_out["goals"][f"{goal_ms:g}"] = None
                continue
            after = SIM_METER.snapshot()
            entry_out["goals"][f"{goal_ms:g}"] = {
                "threshold_ms": best.threshold * 1e3,
                "request_kb": best.request_bytes // 1024,
                "throughput_mbps": best.throughput_mbps,
                "achieved_slowdown_ms": best.achieved_slowdown * 1e3,
                "interval_evals": (
                    after["interval_evals"] - before["interval_evals"]
                ),
                "sims": after["sims"] - before["sims"],
            }
            if not args.json:
                print(
                    f"{name:<12} {goal_ms:6.2f}ms  "
                    f"{best.threshold * 1e3:8.1f}ms  "
                    f"{best.request_bytes // 1024:6d}KB  "
                    f"{best.throughput_mbps:8.2f}MB/s"
                )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif runner is not None and runner.cache is not None:
        print(
            f"sweep cache: {runner.cache.hits} hits, "
            f"{runner.cache.misses} misses ({runner.cache.root})"
        )
    return 0


def cmd_optimize(args) -> int:
    from repro.analysis.service_model import ScrubServiceModel
    from repro.analysis.slowdown import simulate_fixed_waiting
    from repro.traces.idle import idle_intervals_from_trace

    if args.budget < 1:
        raise SystemExit(f"--budget must be >= 1: {args.budget}")
    if getattr(args, "corpus", None):
        return _optimize_corpus(args)
    trace = _load_trace(args)
    _, durations = idle_intervals_from_trace(
        trace, positioning=args.service_ms / 1e3
    )
    if len(durations) == 0:
        print("no idle intervals found; nothing to optimise")
        return 1
    spec = _drive_spec(args.drive)
    print(f"measuring scrub service times on {spec.name}...")
    model = ScrubServiceModel.from_spec(spec, kernel=args.kernel)
    recorder = None
    if args.telemetry:
        from repro.telemetry import Recorder

        recorder = Recorder(wall_time=False)
    runner = _build_runner(args, telemetry=recorder)
    print(f"{'goal':>8}  {'threshold':>10}  {'request':>8}  {'scrub':>10}")
    tune = _build_tuner(args, durations, len(trace), trace.duration, model)
    for goal_ms in args.goals_ms:
        try:
            best = tune(goal_ms / 1e3, runner)
        except ValueError:
            print(f"{goal_ms:6.2f}ms  unattainable on this workload")
            continue
        print(
            f"{goal_ms:6.2f}ms  {best.threshold * 1e3:8.1f}ms  "
            f"{best.request_bytes // 1024:6d}KB  "
            f"{best.throughput_mbps:8.2f}MB/s"
        )
    cfq = simulate_fixed_waiting(
        durations, 0.010, 65536, model, len(trace), trace.duration
    )
    print(
        f"CFQ-like baseline (10ms gate, 64KB): {cfq.throughput_mbps:.2f} MB/s "
        f"at {cfq.mean_slowdown * 1e3:.2f} ms mean slowdown"
    )
    if runner is not None and runner.cache is not None:
        print(
            f"sweep cache: {runner.cache.hits} hits, "
            f"{runner.cache.misses} misses ({runner.cache.root})"
        )
    if recorder is not None:
        from repro.telemetry import format_table

        print(format_table(recorder.metrics.snapshot(), title="sweep telemetry"))
    return 0


def cmd_throughput(args) -> int:
    from repro.analysis import standalone_scrub_throughput
    from repro.core import SequentialScrub, StaggeredScrub

    spec = _drive_spec(args.drive)
    if args.algorithm == "sequential":
        algorithm = SequentialScrub()
    else:
        algorithm = StaggeredScrub(args.regions)
    recorder = None
    if args.telemetry or args.trace_out:
        from repro.telemetry import Recorder

        recorder = Recorder(wall_time=True)
    rate = standalone_scrub_throughput(
        spec, algorithm, request_bytes=args.request_kb * 1024,
        horizon=args.horizon, delay=args.delay_ms / 1e3,
        telemetry=recorder, kernel=args.kernel,
    )
    full_scan_h = spec.capacity_bytes / rate / 3600 if rate else float("inf")
    print(
        f"{spec.name}: {args.algorithm} "
        f"({args.regions if args.algorithm == 'staggered' else '-'} regions), "
        f"{args.request_kb} KB requests -> {rate / 1e6:.1f} MB/s "
        f"(full scan in {full_scan_h:.1f} h)"
    )
    if recorder is not None:
        from repro.telemetry import format_table, write_chrome_trace

        if args.telemetry:
            print(format_table(recorder.metrics.snapshot(), title="run telemetry"))
        if args.trace_out:
            count = write_chrome_trace(
                args.trace_out,
                recorder.chrome_events(
                    process_name=f"{spec.name}:{args.algorithm}"
                ),
            )
            print(
                f"wrote {count} trace events to {args.trace_out} "
                f"(load in Perfetto or chrome://tracing)"
            )
    return 0


def cmd_mlet(args) -> int:
    from repro.analysis import standalone_scrub_throughput
    from repro.core import SequentialScrub, StaggeredScrub
    from repro.core.mlet import (
        generate_bursts,
        mean_latent_error_time,
        sector_visit_times,
    )

    spec = _drive_spec(args.drive)
    rng = np.random.default_rng(args.seed)
    bursts = generate_bursts(
        rng, args.sectors, count=3000, horizon=1e9,
        mean_length=args.burst_length, max_length=args.burst_length * 10,
    )
    print(f"{'order':<18}{'MB/s':>8}{'pass':>10}{'MLET':>10}")
    configs = [("sequential", lambda: SequentialScrub())] + [
        (f"staggered-{r}", lambda r=r: StaggeredScrub(r))
        for r in args.regions
    ]
    for label, factory in configs:
        rate = standalone_scrub_throughput(
            spec, factory(), request_bytes=64 * 1024, horizon=5.0
        )
        visits, pass_duration = sector_visit_times(
            factory(), args.sectors, 128, rate
        )
        mlet = mean_latent_error_time(visits, pass_duration, bursts)
        print(
            f"{label:<18}{rate / 1e6:>8.1f}{pass_duration:>9.1f}s{mlet:>9.1f}s"
        )
    return 0


def cmd_detect(args) -> int:
    from repro.analysis.detection import detection_sweep_task
    from repro.analysis.stack import ALGORITHMS
    from repro.parallel import SweepRunner

    model_params = {}
    if args.model == "bernoulli":
        model_params["per_sector_probability"] = args.error_rate
    else:
        model_params["inter_burst_mean"] = args.burst_mean
        model_params["in_burst_time_mean"] = args.burst_mean / 50.0
    for algorithm in args.algorithms:
        if algorithm not in ALGORITHMS:
            raise SystemExit(
                f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
            )
    fg_trace = None
    if args.trace or args.synthetic:
        if args.foreground:
            raise SystemExit(
                "detect: --trace/--synthetic and --foreground are both "
                "foreground sources; pass at most one"
            )
        if args.trace and args.synthetic:
            raise SystemExit(
                "detect: --trace and --synthetic are mutually exclusive"
            )
        # Loaded once here; SweepRunner's forked workers inherit it and
        # the cache is keyed on its content digest.
        fg_trace = _load_trace(args)
    collect = bool(args.telemetry or args.trace_out)
    param_sets = [
        dict(
            drive=args.drive,
            cylinders=args.cylinders,
            algorithm=algorithm,
            regions=args.regions,
            model=args.model,
            model_params=model_params,
            horizon=args.horizon,
            seed=args.seed,
            cache_enabled=not args.no_cache,
            cache_bug=bug,
            foreground=args.foreground,
            trace=fg_trace,
            collect_telemetry=collect,
            kernel=args.kernel,
        )
        for algorithm in args.algorithms
        for bug in (False, True)
    ]
    runner = _build_runner(args) or SweepRunner(workers=0)
    results = runner.map(detection_sweep_task, param_sets)
    print(f"{_drive_spec(args.drive).name} (shrunk to {args.cylinders} cylinders), "
          f"model={args.model}, horizon={args.horizon}s, seed={args.seed}")
    print(
        f"{'policy':<11}{'verify':>8}{'inject':>8}{'detect':>8}{'scrub':>7}"
        f"{'fg':>5}{'masked':>8}{'missed':>8}{'remap':>7}{'MTTD':>9}  lifecycle"
    )
    for params, result in zip(param_sets, results):
        m = result.metrics
        mttd = (
            f"{m.mean_time_to_detection:8.2f}s"
            if m.mean_time_to_detection is not None
            else "      n/a"
        )
        verify = "cached" if params["cache_bug"] else "media"
        lifecycle = "complete" if m.lifecycle_complete else "INCOMPLETE"
        print(
            f"{result.algorithm:<11}{verify:>8}{m.injected:>8}{m.detected:>8}"
            f"{m.scrub_detected:>7}{m.foreground_detected:>5}"
            f"{m.cache_mask_events:>8}{m.missed_due_to_cache:>8}"
            f"{m.remapped:>7}{mttd}  {lifecycle}"
        )
    if args.telemetry:
        from repro.telemetry import format_table

        fleet = SweepRunner.merge_task_telemetry(results)
        print(
            format_table(
                fleet, title=f"fleet telemetry ({len(results)} runs, merged)"
            )
        )
    if args.trace_out:
        from repro.telemetry import with_pid, write_chrome_trace

        events = []
        for pid, (params, result) in enumerate(zip(param_sets, results)):
            if result.telemetry is None:
                continue
            verify = "cached" if params["cache_bug"] else "media"
            events.extend(
                with_pid(
                    result.telemetry["events"],
                    pid=pid,
                    process_name=f"{params['algorithm']} verify={verify}",
                )
            )
        count = write_chrome_trace(args.trace_out, events)
        print(
            f"wrote {count} trace events ({len(results)} runs) to "
            f"{args.trace_out} (load in Perfetto or chrome://tracing)"
        )
    return 0


def cmd_trace(args) -> int:
    if args.kernel == "vector":
        # The trace exporter's Recorder runs with wall_time=True and
        # attributes wall-clock spans to individual events; the vector
        # kernel retires timer batches in bulk, so per-event wall
        # attribution is meaningless there.  Fail fast rather than
        # silently recording garbage or falling back.
        from repro.sim.vector import UnsupportedKernelFeature

        raise UnsupportedKernelFeature(
            "repro trace records per-event wall-clock spans, which the "
            "vector kernel's batch retirement cannot attribute; "
            "use --kernel reference"
        )
    if args.trace and args.synthetic:
        print(
            "repro trace: --trace and --synthetic are both foreground "
            "sources and are mutually exclusive; pass at most one "
            "(or use --foreground for a closed-loop random reader).",
            file=sys.stderr,
        )
        return 2
    from repro.analysis.detection import shrunk_spec
    from repro.analysis.stack import ScrubberSetup, ScrubStack
    from repro.disk.drive import Drive
    from repro.faults import RemediationPolicy, build_model
    from repro.telemetry import Recorder, format_table, write_chrome_trace
    from repro.telemetry.export import (
        error_log_records,
        request_log_records,
        write_jsonl,
    )

    spec = _drive_spec(args.drive)
    if args.cylinders:
        spec = shrunk_spec(spec, cylinders=args.cylinders)

    plan = None
    if args.inject:
        total_sectors = Drive(spec, cache_enabled=False).total_sectors
        plan = build_model(
            "bursts",
            inter_burst_mean=args.burst_mean,
            in_burst_time_mean=args.burst_mean / 50.0,
        ).generate(total_sectors, args.horizon, args.seed)
    recorder = Recorder(wall_time=True)
    # Idle gate, Waiting threshold and spare pool are CFQScheduler's,
    # WaitingScrubber's and MediaFaults' own defaults (`repro detect`
    # runs Waiting at 10 ms and a 4096-sector pool: DESIGN §18).
    stack = ScrubStack(
        spec,
        ScrubberSetup(
            algorithm=args.algorithm,
            regions=args.regions,
            request_bytes=args.request_kb * 1024,
            threshold=0.1,
        ),
        idle_gate=0.010,
        cache_enabled=not args.no_cache,
        telemetry=recorder,
        fault_plan=plan,
        spare_sectors=1024,
        remediation=RemediationPolicy() if args.inject else None,
        max_log_records=args.max_log_records,
    )
    if args.trace or args.synthetic:
        stack.replay(_load_trace(args))
    elif args.foreground:
        stack.reader("random", args.seed, args.think_ms / 1e3)
    # Drain in-flight scrub work so no request is left mid-lifecycle.
    stack.run(args.horizon, drain=True)
    device, drive, faults = stack.device, stack.drive, stack.faults

    count = write_chrome_trace(
        args.out,
        recorder.chrome_events(process_name=f"{spec.name}:{args.algorithm}"),
    )
    # Operational losses belong in the table, not in footnotes: surface
    # the request-log ring overflow and cache segment evictions as
    # first-class counters so a truncated log or a thrashing cache is
    # visible in the same place as every other metric.
    recorder.metrics.counter("device.log_dropped").inc(device.log.dropped)
    recorder.metrics.counter("drive.cache_evictions").inc(
        drive.cache.evictions
    )
    print(format_table(recorder.metrics.snapshot(), title="run telemetry"))
    print(
        f"wrote {count} trace events to {args.out} "
        f"(load in Perfetto or chrome://tracing)"
    )
    if device.log.dropped:
        print(
            f"request log ring buffer dropped {device.log.dropped} oldest "
            f"records (raise --max-log-records to keep more)"
        )
    if args.jsonl:
        written = write_jsonl(
            f"{args.jsonl}.requests.jsonl", request_log_records(device.log)
        )
        print(f"wrote {written} request records to {args.jsonl}.requests.jsonl")
        if faults is not None:
            written = write_jsonl(
                f"{args.jsonl}.errors.jsonl", error_log_records(faults.log)
            )
            print(f"wrote {written} error records to {args.jsonl}.errors.jsonl")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import fuzz, run_selftest

    status = 0
    if args.self_test:
        results = run_selftest()
        width = max(len(r.name) for r in results)
        for r in results:
            verdict = "caught" if r.caught else "MISSED"
            clean = "" if r.clean_after else "  [patch leaked!]"
            print(f"  {r.name:<{width}}  {verdict}{clean}")
            if not (r.caught and r.clean_after):
                status = 1
                for line in r.detail.splitlines():
                    print(f"    {line}")
        planted = len(results)
        caught = sum(1 for r in results if r.caught and r.clean_after)
        print(f"self-test: {caught}/{planted} planted bugs caught")
        if args.configs <= 0:
            return status

    # Live \r progress only on a terminal; CI logs get one line per
    # visited quartile instead of 200 carriage returns.
    interactive = sys.stderr.isatty()

    def progress(index: int, total: int) -> None:
        if interactive:
            print(f"  fuzz config {index + 1}/{total}", end="\r",
                  file=sys.stderr)
            sys.stderr.flush()
        elif total >= 8 and index % max(1, total // 4) == 0:
            print(f"  fuzz config {index + 1}/{total}", file=sys.stderr)

    axes = tuple(args.axes) if args.axes else None
    report = fuzz(
        seed=args.seed,
        n=args.configs,
        axes=axes,
        parallel_workers=args.workers,
        progress=progress,
        kernel=args.kernel,
    )
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.describe())
    return status or (0 if report.ok else 1)


def _parse_policy(text: str, index: int):
    """``alg[:regions][@period_hours]`` -> ScrubPolicySpec.

    Examples: ``sequential``, ``staggered:64``, ``sequential@336``,
    ``staggered:128@168``.  The policy name encodes the parameters so
    repeated flags stay distinguishable in the output table.
    """
    from repro.fleet import ScrubPolicySpec

    spec_text = text.strip()
    period_hours = 168.0
    if "@" in spec_text:
        spec_text, _, period_text = spec_text.partition("@")
        try:
            period_hours = float(period_text)
        except ValueError:
            raise SystemExit(f"--policy {text!r}: bad period {period_text!r}")
    regions = 128
    if ":" in spec_text:
        spec_text, _, regions_text = spec_text.partition(":")
        try:
            regions = int(regions_text)
        except ValueError:
            raise SystemExit(f"--policy {text!r}: bad regions {regions_text!r}")
    algorithm = spec_text or "sequential"
    if algorithm not in ("sequential", "staggered"):
        raise SystemExit(
            f"--policy {text!r}: algorithm must be sequential|staggered"
        )
    if algorithm == "staggered":
        name = f"staggered{regions}-{period_hours:g}h"
    else:
        name = f"sequential-{period_hours:g}h"
    try:
        return ScrubPolicySpec(
            name=name, algorithm=algorithm, regions=regions,
            period_hours=period_hours,
        )
    except ValueError as exc:
        raise SystemExit(f"--policy {text!r}: {exc}")


def _campaign_spec_from_args(args, command: str):
    """Build a validated CampaignSpec from the shared fleet/submit flags."""
    from repro.fleet import CampaignSpec, DriveClass, FleetSpec

    policy_texts = args.policy or ["sequential@168", "staggered:128@168"]
    policies = tuple(
        _parse_policy(text, index) for index, text in enumerate(policy_texts)
    )
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise SystemExit(f"{command}: duplicate policies after parsing: {names}")
    try:
        fleet = FleetSpec(
            groups=args.groups,
            disks_per_group=args.disks,
            raid_level=args.raid,
            mttr_hours=args.mttr_hours,
            spare_delay_hours=args.spare_delay_hours,
            classes=(
                DriveClass(
                    preset=args.drive,
                    mttf_hours=args.mttf_hours,
                    lse_burst_rate_per_hour=args.lse_rate,
                ),
            ),
        )
        return CampaignSpec(
            fleet=fleet,
            policies=policies,
            mission_years=args.mission_years,
            seed=args.seed,
            shards=args.shards,
        )
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}")


def cmd_fleet(args) -> int:
    import json
    import os

    from repro.fleet import CampaignRunner, campaign_digest
    from repro.parallel.supervise import RetryPolicy
    from repro.verify import InvariantViolation

    if args.resume and not args.journal:
        raise SystemExit("fleet: --resume needs --journal DIR to resume from")
    if args.trace_out and not (args.monitor or args.monitor_dir):
        raise SystemExit(
            "fleet: --trace-out needs --monitor (the span recorder lives "
            "in the campaign monitor)"
        )
    if args.resume and not os.path.isfile(
        os.path.join(args.journal, "manifest.json")
    ):
        raise SystemExit(
            f"fleet: --resume but {args.journal} has no manifest.json "
            "(nothing to resume; drop --resume to start fresh)"
        )

    spec = _campaign_spec_from_args(args, "fleet")
    fleet = spec.fleet
    policies = spec.policies

    recorder = None
    if args.telemetry:
        from repro.telemetry import Recorder

        recorder = Recorder(wall_time=False)
    monitor = None
    if args.monitor or args.monitor_dir:
        from repro.obs import CampaignMonitor

        obs_dir = args.monitor_dir or (
            os.path.join(args.journal, "obs") if args.journal else "fleet-obs"
        )

        def _progress(line: str) -> None:
            # Progress goes to stderr so result tables and --json stay
            # clean for pipelines.
            print(line, file=sys.stderr)

        monitor = CampaignMonitor(
            obs_dir, interval=args.status_interval, on_progress=_progress
        )
    retry = RetryPolicy(max_attempts=args.max_attempts, seed=args.seed)
    runner = CampaignRunner(
        spec,
        journal_dir=args.journal,
        workers=args.workers,
        task_timeout=args.task_timeout,
        retry=retry,
        telemetry=recorder,
        monitor=monitor,
    )
    print(
        f"campaign {campaign_digest(spec)[:12]}: "
        f"{fleet.groups:,} x {args.raid} groups "
        f"({fleet.drives:,} drives), {len(policies)} policies, "
        f"{args.mission_years:g}y mission, {spec.shards} shards"
        + (f", journal {args.journal}" if args.journal else "")
    )
    try:
        result = runner.run()
    except InvariantViolation as exc:
        print(f"fleet: invariant violation: {exc}", file=sys.stderr)
        return 1

    if result.shards_resumed:
        print(
            f"resumed {result.shards_resumed}/{result.shards_total} shards "
            f"from journal checkpoints"
        )
    print(
        f"{'policy':<22}{'window':>8}{'losses':>8}{'MTTDL':>10}"
        f"{'95% CI':>20}{'P(loss)':>9}{'closed-form':>13}"
    )
    for p in result.policies:
        ci_low = p.mttdl_ci_hours[0] / 8760.0
        ci_high = p.mttdl_ci_hours[1] / 8760.0
        ci = (
            f"[{ci_low:6.1f}, {ci_high:6.1f}]y"
            if np.isfinite(ci_high)
            else f"[{ci_low:6.1f},    inf]y"
        )
        mttdl = (
            f"{p.mttdl_years:8.1f}y" if np.isfinite(p.mttdl_years) else "     inf"
        )
        cf = p.closed_form_mttdl_hours / 8760.0
        cf_txt = f"{cf:10.1f}y" if np.isfinite(cf) else "       inf"
        print(
            f"{p.name:<22}{p.latent_window_hours:>7.1f}h{p.losses:>8}"
            f"{mttdl:>10}{ci:>20}{p.p_loss_mission:>9.4f}{cf_txt:>13}"
        )
    print(
        f"completeness {result.completeness:.3f} "
        f"({result.shards_completed}/{result.shards_total} shards"
        + (f", {result.shards_failed} failed: {result.failed_shards}"
           if result.shards_failed else "")
        + ")"
    )
    if result.supervision:
        s = result.supervision
        print(
            f"supervision: {s['attempts']} attempts, {s['retries']} retries, "
            f"{s['timeouts']} timeouts, {s['worker_deaths']} worker deaths, "
            f"{s['speculated']} speculative re-dispatches"
        )
    if monitor is not None:
        status = monitor.status()
        workers_info = status["workers"]
        print(
            f"monitor: utilization {workers_info['utilization']:.2f} "
            f"over {workers_info['configured']} workers, "
            f"{status['throughput']['drive_years']:.0f} drive-years "
            f"({status['throughput']['drive_years_per_s']:.0f}/s)"
        )
        print(f"{'shard':>6}{'state':>10}{'att':>5}{'wall':>9}{'rss':>10}")
        for row in status["per_shard"]:
            duration = row.get("duration_s")
            wall = f"{duration:7.2f}s" if duration is not None else "      -"
            rss = row.get("peak_rss_kb") or 0
            rss_txt = f"{rss / 1024.0:8.1f}M" if rss else "        -"
            print(
                f"{row['index']:>6}{row['state']:>10}"
                f"{row['attempts']:>5}{wall:>9}{rss_txt:>10}"
            )
        print(
            f"monitor: wrote {monitor.status_path}, {monitor.events_path}, "
            f"{monitor.trace_path}, {monitor.summary_path}"
        )
        if args.trace_out:
            monitor.write_trace(args.trace_out)
            print(f"wrote span trace to {args.trace_out}")
    if args.prom_out:
        from repro.obs import write_textfile

        write_textfile(args.prom_out, result.telemetry)
        print(f"wrote Prometheus textfile to {args.prom_out}")
    if args.json:
        payload = result.metrics_dict()
        payload["campaign_digest"] = campaign_digest(spec)
        payload["shards_resumed"] = result.shards_resumed
        payload["failed_shards"] = result.failed_shards
        payload["supervision"] = result.supervision
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote fleet metrics to {args.json}")
    if recorder is not None:
        from repro.telemetry import format_table

        print(format_table(recorder.metrics.snapshot(), title="campaign telemetry"))
    return 0 if result.shards_failed == 0 else 3


def cmd_report(args) -> int:
    import os

    from repro.obs import build_report, load_obs_dir

    try:
        data = load_obs_dir(args.obs_dir)
    except FileNotFoundError as exc:
        raise SystemExit(f"report: {exc}")
    path = build_report(args.obs_dir, out_path=args.out)
    status = data.get("status") or {}
    state = (data.get("summary") or {}).get("state") or status.get("state")
    progress = status.get("progress_live", status.get("progress"))
    detail = f", state {state}" if state else ""
    if progress is not None:
        detail += f", progress {progress:.0%}"
    print(
        f"wrote {path} ({os.path.getsize(path):,} bytes{detail}, "
        f"{len(data.get('events') or [])} events)"
    )
    return 0


def cmd_serve(args) -> int:
    import time

    from repro.service import CampaignService

    service = CampaignService(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_jobs=args.max_jobs,
        workers=args.workers,
        client_quota=args.client_quota,
        task_timeout=args.task_timeout,
        max_attempts=args.max_attempts,
        status_interval=args.status_interval,
    )
    recovered = service.queue.recovered
    if recovered:
        print(
            f"serve: re-queued {len(recovered)} job(s) left running by a "
            f"previous service: {', '.join(j[:12] for j in recovered)}"
        )
    service.start()
    counts = service.queue.counts()
    print(
        f"serve: listening on {service.url} "
        f"(data {service.data_dir}, {args.max_jobs} campaign slot(s), "
        f"{args.workers} worker(s)/campaign); "
        f"{counts['queued']} queued, {counts['done']} done"
    )
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        print("serve: draining (running campaigns checkpoint and re-queue)")
        return 0
    finally:
        service.stop()


def _job_timing(job: dict) -> str:
    """``queued <ms> · ran <ms>`` from a job record's wall-clock stamps.

    ``queued`` runs from the first submission to the latest claim;
    parts whose stamps are not set yet are left out.
    """
    started, finished = job.get("started", 0.0), job.get("finished", 0.0)
    parts = []
    if started:
        parts.append(f"queued {(started - job['created']) * 1e3:.0f} ms")
        if finished:
            parts.append(f"ran {(finished - started) * 1e3:.0f} ms")
    return " · ".join(parts)


def cmd_submit(args) -> int:
    import json

    from repro.fleet import spec_to_dict
    from repro.service import ServiceClient, ServiceTimeout

    if args.status:
        return cmd_submit_status(args)
    if args.spec_json:
        try:
            with open(args.spec_json, encoding="utf-8") as handle:
                spec_dict = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"submit: cannot read {args.spec_json}: {exc}")
    else:
        spec_dict = spec_to_dict(_campaign_spec_from_args(args, "submit"))
    client = ServiceClient(args.url, timeout=args.timeout, client=args.client)
    try:
        status, payload = client.submit(spec_dict)
    except OSError as exc:
        raise SystemExit(f"submit: cannot reach {args.url}: {exc}")
    if status not in (200, 201):
        raise SystemExit(
            f"submit: rejected ({status}): {payload.get('error', payload)}"
        )
    job = payload["job"]
    verb = "submitted" if payload["created"] else "already known"
    print(
        f"submit: campaign {job['id'][:12]} {verb} "
        f"(state {job['state']}, {job['shards_total']} shards)"
    )
    if not args.wait:
        print(f"submit: poll with: repro submit --url {args.url} "
              f"--status {job['id']}")
        return 0
    try:
        final = client.wait(job["id"], timeout=args.timeout)
    except ServiceTimeout as exc:
        raise SystemExit(f"submit: {exc}")
    timing = _job_timing(final)
    print(
        f"submit: campaign {job['id'][:12]} -> {final['state']}"
        + (f" ({timing})" if timing else "")
    )
    if final["state"] == "done":
        metrics = final["result"]["metrics"]
        print(f"{'policy':<22}{'losses':>8}{'P(loss)':>10}")
        for policy in metrics["policies"]:
            print(
                f"{policy['name']:<22}{policy['losses']:>8}"
                f"{policy['p_loss_mission']:>10.4f}"
            )
        print(f"completeness {metrics['completeness']:.3f}")
    elif final.get("error"):
        print(f"submit: {final['error']}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(final, handle, indent=2, sort_keys=True)
        print(f"wrote job record to {args.json}")
    return 0 if final["state"] == "done" else 3


def cmd_submit_status(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        status, payload = client.job(args.status)
    except OSError as exc:
        raise SystemExit(f"submit: cannot reach {args.url}: {exc}")
    if status != 200:
        raise SystemExit(
            f"submit: {status}: {payload.get('error', payload)}"
        )
    job = payload["job"]
    print(
        f"campaign {job['id'][:12]}: {job['state']}, "
        f"{job['attempts']} attempt(s), client {job['client']}"
    )
    timing = _job_timing(job)
    if timing:
        print(timing)
    live = payload.get("status")
    if live:
        progress = live.get("progress_live", live.get("progress"))
        if progress is not None:
            print(f"progress {progress:.0%}")
    if job.get("error"):
        print(f"error: {job['error']}")
    return 0


def _add_campaign_spec_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that define a campaign spec, shared by fleet and submit."""
    parser.add_argument("--groups", type=int, default=10_000)
    parser.add_argument("--disks", type=int, default=8, help="drives per group")
    parser.add_argument(
        "--raid", choices=("raid5", "raid1", "none"), default="raid5"
    )
    parser.add_argument("--drive", default="ultrastar", help="drive preset")
    parser.add_argument("--mttf-hours", type=float, default=1.0e5)
    parser.add_argument("--mttr-hours", type=float, default=24.0)
    parser.add_argument("--spare-delay-hours", type=float, default=4.0)
    parser.add_argument(
        "--lse-rate", type=float, default=1e-4,
        help="latent-sector-error bursts per drive-hour",
    )
    parser.add_argument(
        "--policy", action="append",
        default=None, metavar="ALG[:REGIONS][@PERIOD_H]",
        help="scrub policy under evaluation (repeatable; default "
        "sequential@168 and staggered:128@168)",
    )
    parser.add_argument("--mission-years", type=float, default=10.0)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)


def _add_kernel_flag(parser: argparse.ArgumentParser, default="reference") -> None:
    from repro.sim import KERNELS

    parser.add_argument(
        "--kernel", choices=KERNELS, default=default,
        help="simulation engine backend (default %(default)s); both are "
        "bit-identical, and an unsupported scenario under 'vector' "
        "fails with exit code 2 instead of falling back",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Practical Scrubbing (DSN 2012) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic trace to CSV")
    generate.add_argument("--name", help="catalog trace name")
    generate.add_argument("--output", "-o", help="output CSV path (.gz ok)")
    generate.add_argument("--duration", type=float, default=4 * 3600.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--list", action="store_true", help="list catalog entries")
    generate.set_defaults(func=cmd_generate)

    corpus = sub.add_parser(
        "corpus", help="build / inspect an on-disk trace corpus"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_build = corpus_sub.add_parser(
        "build", help="generate catalog traces into a columnar corpus"
    )
    corpus_build.add_argument("--out", "-o", required=True, metavar="DIR")
    corpus_build.add_argument(
        "--names", nargs="+", default=None, metavar="NAME",
        help="catalog entries to include (default: all)",
    )
    corpus_build.add_argument("--duration", type=float, default=None)
    corpus_build.add_argument("--seed", type=int, default=0)
    corpus_build.add_argument(
        "--repetitions", type=int, default=1,
        help="tile each trace N times end-to-end (multi-GB corpora)",
    )
    corpus_build.add_argument(
        "--chunk-requests", type=int, default=None,
        help="requests per on-disk chunk (default 1Mi = 25MiB chunks)",
    )
    corpus_build.set_defaults(func=cmd_corpus_build)
    corpus_list = corpus_sub.add_parser(
        "list", help="list a corpus's entries"
    )
    corpus_list.add_argument("dir", metavar="DIR")
    corpus_list.set_defaults(func=cmd_corpus_list)
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-hash every chunk of every entry"
    )
    corpus_verify.add_argument("dir", metavar="DIR")
    corpus_verify.set_defaults(func=cmd_corpus_verify)

    analyze = sub.add_parser("analyze", help="workload statistics (Section V-A)")
    _add_trace_source(analyze)
    analyze.add_argument(
        "--service-ms", type=float, default=4.0,
        help="nominal per-request positioning time for idle extraction",
    )
    analyze.set_defaults(func=cmd_analyze)

    optimize = sub.add_parser(
        "optimize", help="optimal (threshold, size) per slowdown goal"
    )
    _add_trace_source(optimize, corpus=True)
    optimize.add_argument(
        "--service-ms", type=float, default=4.0,
        help="nominal per-request positioning time for idle extraction",
    )
    optimize.add_argument("--drive", default="ultrastar")
    optimize.add_argument(
        "--goals-ms", type=float, nargs="+", default=[1.0, 2.0, 4.0]
    )
    optimize.add_argument("--max-slowdown-ms", type=float, default=50.4)
    optimize.add_argument(
        "--budget", type=int, default=3, metavar="N",
        help="search budget: arms kept through the final full-horizon "
        "rung (higher = closer to the exhaustive grid; default 3)",
    )
    optimize.add_argument(
        "--search-seed", type=int, default=0,
        help="seed for the search's rung subsampling (same seed = "
        "bit-identical run)",
    )
    optimize.add_argument(
        "--entries", nargs="+", metavar="NAME", default=None,
        help="with --corpus: tune only these catalog entries",
    )
    optimize.add_argument(
        "--json", action="store_true",
        help="with --corpus: emit the tuning table as sorted-key JSON",
    )
    optimize.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the size sweep (0 = in-process serial)",
    )
    optimize.add_argument(
        "--cache", action="store_true",
        help="cache sweep results on disk ($REPRO_CACHE_DIR or ~/.cache/repro/sweeps)",
    )
    optimize.add_argument(
        "--cache-dir", default=None,
        help="cache directory (implies --cache)",
    )
    optimize.add_argument(
        "--telemetry", action="store_true",
        help="print a sweep-telemetry metrics table after the results",
    )
    _add_kernel_flag(optimize)
    optimize.set_defaults(func=cmd_optimize)

    throughput = sub.add_parser("throughput", help="standalone scrub throughput")
    throughput.add_argument("--drive", default="ultrastar")
    throughput.add_argument(
        "--algorithm", choices=("sequential", "staggered"), default="sequential"
    )
    throughput.add_argument("--regions", type=int, default=128)
    throughput.add_argument("--request-kb", type=int, default=64)
    throughput.add_argument("--delay-ms", type=float, default=0.0)
    throughput.add_argument("--horizon", type=float, default=10.0)
    throughput.add_argument(
        "--telemetry", action="store_true",
        help="print a metrics summary table for the run",
    )
    throughput.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON of the run",
    )
    _add_kernel_flag(throughput)
    throughput.set_defaults(func=cmd_throughput)

    detect = sub.add_parser(
        "detect", help="LSE detection/remediation lifecycle per scrub policy",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "cache-bug interaction:\n"
            "  Each policy is always run twice, as a built-in A/B over the\n"
            "  ATA VERIFY-from-cache firmware bug (paper Fig. 1): the\n"
            "  'verify=media' row forces the bug off, 'verify=cached'\n"
            "  forces it on, with identical geometry and scrub schedule.\n"
            "  --no-drive-cache disables the drive cache itself, which\n"
            "  suppresses the bug's masking channel on BOTH rows — use it\n"
            "  to confirm the masked/missed columns go to zero, not to\n"
            "  pick one side of the A/B."
        ),
    )
    detect.add_argument("--drive", default="caviar")
    detect.add_argument(
        "--cylinders", type=int, default=50,
        help="shrink the drive to this many cylinders for a fast run",
    )
    detect.add_argument(
        "--algorithms", nargs="+",
        default=["sequential", "staggered", "waiting"],
    )
    detect.add_argument("--regions", type=int, default=16)
    detect.add_argument(
        "--model", choices=("bernoulli", "bursts"), default="bursts"
    )
    detect.add_argument(
        "--error-rate", type=float, default=1e-3,
        help="bernoulli per-sector error probability",
    )
    detect.add_argument(
        "--burst-mean", type=float, default=0.5,
        help="mean seconds between error bursts (bursts model)",
    )
    detect.add_argument("--horizon", type=float, default=5.0)
    detect.add_argument("--seed", type=int, default=3)
    detect.add_argument(
        "--no-drive-cache", dest="no_cache", action="store_true",
        help="disable the drive cache (suppresses the ATA bug entirely)",
    )
    detect.add_argument(
        "--foreground", action="store_true",
        help="run a closed-loop random reader alongside the scrubber",
    )
    detect.add_argument(
        "--trace", metavar="FILE", default=None,
        help="replay this CSV trace as the foreground workload "
        "(mutually exclusive with --foreground)",
    )
    detect.add_argument(
        "--synthetic", metavar="NAME", default=None,
        help="replay a synthetic catalog trace as the foreground workload",
    )
    detect.add_argument(
        "--duration", type=float, default=60.0,
        help="synthetic foreground trace length in seconds",
    )
    detect.add_argument(
        "--max-requests", type=int, default=None,
        help="stop parsing a --trace CSV after this many requests",
    )
    detect.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the sweep (0 = in-process serial)",
    )
    detect.add_argument(
        "--cache", action="store_true",
        help="cache sweep results on disk ($REPRO_CACHE_DIR or ~/.cache/repro/sweeps)",
    )
    detect.add_argument(
        "--cache-dir", default=None, help="cache directory (implies --cache)"
    )
    detect.add_argument(
        "--telemetry", action="store_true",
        help="record every run and print a merged fleet metrics table",
    )
    detect.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write one Chrome trace JSON with a process row per run",
    )
    _add_kernel_flag(detect)
    detect.set_defaults(func=cmd_detect)

    trace = sub.add_parser(
        "trace",
        help="record a scrub scenario and export a Chrome trace + metrics",
    )
    trace.add_argument("--drive", default="ultrastar")
    trace.add_argument(
        "--cylinders", type=int, default=0,
        help="shrink the drive to this many cylinders (0 = full geometry; "
        "shrinking makes --inject runs finish whole passes quickly)",
    )
    trace.add_argument(
        "--algorithm", choices=("sequential", "staggered", "waiting"),
        default="sequential",
    )
    trace.add_argument("--regions", type=int, default=16)
    trace.add_argument("--request-kb", type=int, default=64)
    trace.add_argument("--horizon", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=0)
    # Foreground sources: checked by hand in cmd_trace (not an argparse
    # group) so the conflict produces a clear message and exit code 2.
    trace.add_argument(
        "--trace", metavar="FILE", default=None,
        help="replay this CSV trace as the foreground workload",
    )
    trace.add_argument(
        "--synthetic", metavar="NAME", default=None,
        help="replay a synthetic catalog trace as the foreground workload",
    )
    trace.add_argument(
        "--duration", type=float, default=60.0,
        help="synthetic foreground trace length in seconds",
    )
    trace.add_argument(
        "--max-requests", type=int, default=None,
        help="stop parsing a --trace CSV after this many requests",
    )
    trace.add_argument(
        "--foreground", action="store_true",
        help="run a closed-loop random reader alongside the scrubber",
    )
    trace.add_argument(
        "--think-ms", type=float, default=50.0,
        help="mean think time of the --foreground reader",
    )
    trace.add_argument(
        "--inject", action="store_true",
        help="inject bursty latent sector errors and enable remediation",
    )
    trace.add_argument(
        "--burst-mean", type=float, default=0.5,
        help="mean seconds between injected error bursts",
    )
    trace.add_argument(
        "--no-drive-cache", dest="no_cache", action="store_true",
        help="disable the drive cache",
    )
    trace.add_argument(
        "--max-log-records", type=int, default=None,
        help="cap the request log as a ring buffer of this many records",
    )
    trace.add_argument(
        "--out", "-o", default="trace.json",
        help="Chrome trace-event JSON output path (default trace.json)",
    )
    trace.add_argument(
        "--jsonl", metavar="PREFIX", default=None,
        help="also write PREFIX.requests.jsonl (and PREFIX.errors.jsonl "
        "with --inject) for offline analysis",
    )
    _add_kernel_flag(trace)
    trace.set_defaults(func=cmd_trace)

    verify = sub.add_parser(
        "verify",
        help="fuzz seeded configs through the correctness harness",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Each fuzzed configuration runs under the runtime invariant\n"
            "checker and through the differential oracle's axes (no sink\n"
            "vs a live invariant sink, reference vs vector engine\n"
            "backend, array vs record replay feed, telemetry on vs off,\n"
            "serial vs forked-worker sweep, campaign monitor on vs off,\n"
            "fleet shard kernel vs its reference ledger).\n"
            "Any failing configuration is minimised and reprinted as a\n"
            "copy-pasteable repro snippet.  The same --seed always draws\n"
            "the same configurations."
        ),
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--configs", type=int, default=50,
        help="number of fuzzed configurations (default 50)",
    )
    verify.add_argument(
        "--axes", nargs="+", default=None,
        choices=(
            "kernel-twin", "kernel-backend", "feed", "telemetry",
            "parallel", "monitor", "fleet-kernel",
        ),
        help="restrict the differential oracle to these axes",
    )
    verify.add_argument(
        "--workers", type=int, default=2,
        help="pool size for the serial-vs-parallel axis (default 2)",
    )
    verify.add_argument(
        "--self-test", action="store_true",
        help="first plant each known seeded bug and assert it is caught "
        "(pass --configs 0 to run the self-test alone)",
    )
    from repro.sim import KERNELS

    verify.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="force every fuzzed config onto one engine backend "
        "(default: drawn per config; the kernel-backend axis still "
        "compares both regardless)",
    )
    verify.set_defaults(func=cmd_verify)

    mlet = sub.add_parser("mlet", help="MLET by scrub order under bursty LSEs")
    mlet.add_argument("--drive", default="ultrastar")
    mlet.add_argument("--sectors", type=int, default=1_000_000)
    mlet.add_argument("--burst-length", type=float, default=4000.0)
    mlet.add_argument("--regions", type=int, nargs="+", default=[16, 64, 128])
    mlet.add_argument("--seed", type=int, default=0)
    mlet.set_defaults(func=cmd_mlet)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale MTTDL / P(loss) campaign with checkpoint/resume",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "policies:\n"
            "  --policy alg[:regions][@period_hours], repeatable.  Examples:\n"
            "    --policy sequential@168 --policy staggered:128@168\n"
            "  Each policy's latent window (mean latent error time) is\n"
            "  computed from its real sector-visit schedule.\n"
            "resume:\n"
            "  With --journal DIR every completed shard is checkpointed\n"
            "  durably; re-running with the same spec and --resume skips\n"
            "  checkpointed shards and reproduces the interrupted campaign\n"
            "  bit-identically.  Exit code 3 means the campaign completed\n"
            "  degraded (completeness < 1 after retries)."
        ),
    )
    _add_campaign_spec_flags(fleet)
    fleet.add_argument(
        "--workers", type=int, default=0,
        help="supervised worker processes (0/1 = serial in-process)",
    )
    fleet.add_argument(
        "--journal", metavar="DIR", default=None,
        help="durable checkpoint directory (enables resume)",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="require an existing journal and skip its completed shards",
    )
    fleet.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-shard deadline in seconds (hung workers are killed "
        "and the shard retried)",
    )
    fleet.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard before it is abandoned (default 3)",
    )
    fleet.add_argument(
        "--telemetry", action="store_true",
        help="print campaign/supervision/cache counters",
    )
    fleet.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the fleet metrics as JSON",
    )
    fleet.add_argument(
        "--monitor", action="store_true",
        help="attach a CampaignMonitor: live progress lines, status.json, "
        "events.jsonl, span trace and run summary in the obs directory",
    )
    fleet.add_argument(
        "--monitor-dir", metavar="DIR", default=None,
        help="observability output directory (implies --monitor; default "
        "<journal>/obs, or ./fleet-obs without a journal)",
    )
    fleet.add_argument(
        "--status-interval", type=float, default=2.0,
        help="seconds between status.json rewrites / progress lines "
        "(default %(default)s)",
    )
    fleet.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="also write the campaign span trace (Perfetto JSON) here",
    )
    fleet.add_argument(
        "--prom-out", metavar="FILE", default=None,
        help="write the final merged telemetry snapshot as a Prometheus "
        "textfile (node_exporter textfile-collector format)",
    )
    fleet.set_defaults(func=cmd_fleet)

    report = sub.add_parser(
        "report",
        help="render a self-contained HTML report from a monitor obs dir",
        description=(
            "Read the status.json / summary.json / events.jsonl written by "
            "'repro fleet --monitor' (or a CampaignMonitor) and render a "
            "single-file HTML run report with KPIs, the per-policy "
            "reliability table, shard-duration histogram and kernel-phase "
            "breakdown.  Works on live and finished campaigns alike."
        ),
    )
    report.add_argument(
        "obs_dir", metavar="OBS_DIR",
        help="observability directory (the fleet --monitor-dir)",
    )
    report.add_argument(
        "--out", "-o", metavar="FILE", default=None,
        help="output HTML path (default <OBS_DIR>/report.html)",
    )
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve",
        help="campaign orchestration service: async job API over the "
        "fleet runner",
        description=(
            "Run the orchestration service: a persistent content-addressed "
            "job queue (duplicate submissions are answered from the "
            "existing job), a fair-share scheduler feeding supervised "
            "CampaignRunner slots, and an HTTP API — POST/GET /campaigns, "
            "NDJSON event streaming, HTML reports, DELETE to cancel.  "
            "Kill -9 the service and restart it on the same --data-dir: "
            "interrupted campaigns re-queue and resume from their shard "
            "checkpoints bit-identically."
        ),
    )
    serve.add_argument(
        "--data-dir", metavar="DIR", default="service-data",
        help="service state root: job records + per-campaign journals "
        "(default %(default)s)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = ephemeral; default %(default)s)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=1,
        help="campaigns executing concurrently (default %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes per campaign (0/1 = serial shards)",
    )
    serve.add_argument(
        "--client-quota", type=int, default=0,
        help="max running jobs per client, 0 = unlimited",
    )
    serve.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-shard deadline in seconds",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard before it is abandoned (default 3)",
    )
    serve.add_argument(
        "--status-interval", type=float, default=2.0,
        help="seconds between status.json rewrites (default %(default)s)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a running 'repro serve' and optionally "
        "wait for its metrics",
        description=(
            "Build a campaign spec from the same flags as 'repro fleet' "
            "(or --spec-json FILE) and POST it to the service.  "
            "Submitting the same spec twice returns the same job.  "
            "--wait polls until the job is terminal and prints the "
            "per-policy loss table; --status ID just reports a job."
        ),
    )
    _add_campaign_spec_flags(submit)
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default %(default)s)",
    )
    submit.add_argument(
        "--client", default="cli",
        help="client identity for fair-share / quotas (default %(default)s)",
    )
    submit.add_argument(
        "--spec-json", metavar="FILE", default=None,
        help="submit this campaign-spec JSON file instead of building "
        "one from flags",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its metrics",
    )
    submit.add_argument(
        "--timeout", type=float, default=3600.0,
        help="--wait timeout in seconds (default %(default)s)",
    )
    submit.add_argument(
        "--status", metavar="JOB_ID", default=None,
        help="report an existing job instead of submitting",
    )
    submit.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the final job record as JSON (with --wait)",
    )
    submit.set_defaults(func=cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.sim.vector import UnsupportedKernelFeature

    try:
        return args.func(args)
    except UnsupportedKernelFeature as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
