"""``repro optimize``: Table III -- the best (wait threshold, request
size) per slowdown goal on a given drive, by successive-halving search,
for one trace or for every entry of a ``--corpus``.  One loop tunes
both: a trace is a corpus of one entry, printed without the entry
column and followed by the CFQ-like baseline.  ``--json`` emits the
same table as sorted-key JSON; ``--telemetry`` appends the sweep's
metrics table."""

import json

from ._shared import (
    UsageError, add_sweep_flags, add_telemetry_flags, add_trace_source,
    build_runner, check_sizes, drive_spec, idle_positioning, load_trace,
    open_corpus, print_telemetry,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "optimize", help="optimal (threshold, size) per slowdown goal"
    )
    add_trace_source(parser, corpus=True)
    parser.add_argument("--drive", default="ultrastar")
    parser.add_argument(
        "--goals-ms", type=float, nargs="+", default=[1.0, 2.0, 4.0]
    )
    parser.add_argument("--max-slowdown-ms", type=float, default=50.4)
    parser.add_argument(
        "--budget", type=int, default=3, metavar="N",
        help="search budget: arms kept through the final full-horizon "
        "rung (higher = closer to the exhaustive grid; default 3)",
    )
    parser.add_argument(
        "--search-seed", type=int, default=0,
        help="seed for the search's rung subsampling (same seed = "
        "bit-identical run)",
    )
    parser.add_argument(
        "--entries", nargs="+", metavar="NAME", default=None,
        help="with --corpus: tune only these catalog entries",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the tuning table as sorted-key JSON",
    )
    add_sweep_flags(parser)
    add_telemetry_flags(
        parser, "print a sweep-telemetry metrics table after the results"
    )
    parser.set_defaults(func=run)


def _corpus_workloads(args, corpus, names):
    """``(name, source, idle durations)`` per entry, one entry in memory
    at a time; ``source`` has ``len()``, ``.duration`` and ``.digest()``."""
    from repro.traces.idle import idle_intervals_streaming

    for name in names:
        stored = corpus.entry(name)
        positioning = corpus.describe(name).get(
            "service_positioning", idle_positioning(args)
        )
        _, durations = idle_intervals_streaming(
            stored.iter_chunks(), positioning=positioning
        )
        yield name, stored, durations


def run(args) -> int:
    from repro.analysis.service_model import ScrubServiceModel
    from repro.analysis.slowdown import SIM_METER, simulate_fixed_waiting
    from repro.core.search import SuccessiveHalvingSearch
    from repro.obs.metrics import MetricsRegistry
    from repro.traces.idle import idle_intervals_from_trace

    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1: {args.budget}")
    check_sizes(args, positive=("goals_ms", "max_slowdown_ms"))
    if args.entries and not args.corpus:
        raise UsageError("--entries selects entries of a --corpus")
    if args.json and args.telemetry:
        raise UsageError("--json and --telemetry both write stdout; pass one")
    say = (lambda *_: None) if args.json else print
    corpus = None
    if args.corpus:
        corpus = open_corpus(args.corpus)
        names = args.entries or corpus.names()
        for name in names:
            if name not in corpus:
                raise UsageError(
                    f"unknown corpus entry {name!r}; available: "
                    f"{', '.join(corpus.names())}"
                )
        workloads = _corpus_workloads(args, corpus, names)
    else:
        trace = load_trace(args)
        _, durations = idle_intervals_from_trace(
            trace, positioning=idle_positioning(args)
        )
        if len(durations) == 0:
            print("no idle intervals found; nothing to optimise")
            return 1
        workloads = [(trace.name or args.trace, trace, durations)]
    # The two row formats: a corpus table leads every row with its entry.
    column = (lambda name: f"{name:<12} ") if corpus else (lambda name: "")
    unattainable = "unattainable" + ("" if corpus else " on this workload")
    spec = drive_spec(args.drive)
    say(f"measuring scrub service times on {spec.name}...")
    model = ScrubServiceModel.from_spec(spec)
    metrics = MetricsRegistry() if args.telemetry else None
    runner = build_runner(args, metrics=metrics)
    payload = {
        "corpus": str(corpus.root) if corpus else None,
        "drive": args.drive,
        "method": "search",
        "budget": args.budget,
        "goals_ms": list(args.goals_ms),
        "entries": {},
    }
    say(
        f"{column('entry')}{'goal':>8}  {'threshold':>10}  {'request':>8}  "
        f"{'scrub':>10}"
    )
    for name, source, durations in workloads:
        goals = {}
        if args.json:
            payload["entries"][name] = {
                "digest": source.digest(),
                "requests": len(source),
                "idle_intervals": int(len(durations)),
                "goals": goals,
            }
        if len(durations) == 0:
            say(f"{column(name)}no idle intervals")
            continue
        # One search per workload sorts its idle sample once for all goals.
        search = SuccessiveHalvingSearch(
            durations, len(source), source.duration, model,
            max_slowdown=args.max_slowdown_ms / 1e3,
            seed=args.search_seed,
            keep_min=args.budget,
        )
        for goal_ms in args.goals_ms:
            before = SIM_METER.snapshot()
            try:
                best = search.search(goal_ms / 1e3, runner=runner).best
            except ValueError:
                say(f"{column(name)}{goal_ms:6.2f}ms  {unattainable}")
                goals[f"{goal_ms:g}"] = None
                continue
            after = SIM_METER.snapshot()
            goals[f"{goal_ms:g}"] = {
                "threshold_ms": best.threshold * 1e3,
                "request_kb": best.request_bytes // 1024,
                "throughput_mbps": best.throughput_mbps,
                "achieved_slowdown_ms": best.achieved_slowdown * 1e3,
                "interval_evals": (
                    after["interval_evals"] - before["interval_evals"]
                ),
                "sims": after["sims"] - before["sims"],
            }
            say(
                f"{column(name)}{goal_ms:6.2f}ms  {best.threshold * 1e3:8.1f}ms  "
                f"{best.request_bytes // 1024:6d}KB  "
                f"{best.throughput_mbps:8.2f}MB/s"
            )
        if not corpus and not args.json:
            cfq = simulate_fixed_waiting(
                durations, 0.010, 65536, model, len(source), source.duration
            )
            print(
                f"CFQ-like baseline (10ms gate, 64KB): "
                f"{cfq.throughput_mbps:.2f} MB/s "
                f"at {cfq.mean_slowdown * 1e3:.2f} ms mean slowdown"
            )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if runner is not None and runner.cache is not None:
        print(
            f"sweep cache: {runner.cache.hits} hits, "
            f"{runner.cache.misses} misses ({runner.cache.root})"
        )
    if metrics is not None:
        print_telemetry(metrics.snapshot(), title="sweep telemetry")
    return 0
