"""``repro trace``: run one scrub scenario through the full stack with
the telemetry recorder on, export a Chrome trace-event JSON (Perfetto /
``chrome://tracing``) and print the metrics summary; ``--jsonl`` adds
the request and error logs."""

from ._shared import (
    add_trace_source, bursts_params, check_sizes, drive_spec, load_trace,
    print_telemetry,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="record a scrub scenario and export a Chrome trace + metrics",
    )
    parser.add_argument("--drive", default="ultrastar")
    parser.add_argument(
        "--cylinders", type=int, default=0,
        help="shrink the drive to this many cylinders (0 = full geometry; "
        "shrinking makes --inject runs finish whole passes quickly)",
    )
    parser.add_argument(
        "--algorithm", choices=("sequential", "staggered", "waiting"),
        default="sequential",
    )
    parser.add_argument("--regions", type=int, default=16)
    parser.add_argument("--request-kb", type=int, default=64)
    parser.add_argument("--horizon", type=float, default=2.0)
    add_trace_source(parser, foreground=True)
    parser.add_argument(
        "--think-ms", type=float, default=50.0,
        help="mean think time of the --foreground reader",
    )
    parser.add_argument(
        "--inject", action="store_true",
        help="inject bursty latent sector errors and enable remediation",
    )
    parser.add_argument(
        "--burst-mean", type=float, default=0.5,
        help="mean seconds between injected error bursts",
    )
    parser.add_argument(
        "--no-drive-cache", dest="no_cache", action="store_true",
        help="disable the drive cache",
    )
    parser.add_argument(
        "--max-log-records", type=int, default=None,
        help="cap the request log as a ring buffer of this many records; "
        "the trace's request spans, request metrics and scrub-progress "
        "samples then cover the last this many as well",
    )
    parser.add_argument(
        "--out", "-o", default="trace.json",
        help="Chrome trace-event JSON output path (default trace.json)",
    )
    parser.add_argument(
        "--jsonl", metavar="PREFIX", default=None,
        help="also write PREFIX.requests.jsonl (and PREFIX.errors.jsonl "
        "with --inject) for offline analysis",
    )
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.analysis.detection import shrunk_spec
    from repro.analysis.stack import ScrubberSetup, ScrubStack
    from repro.disk.drive import Drive
    from repro.faults import RemediationPolicy, build_model
    from repro.obs.export import (
        error_log_records, request_log_records, write_jsonl,
    )
    from repro.obs.sink import Recorder

    staggered = ("regions",) if args.algorithm == "staggered" else ()
    check_sizes(
        args, positive=("request_kb", "max_log_records") + staggered,
        non_negative=("horizon",),
    )
    spec = drive_spec(args.drive)
    if args.cylinders:
        spec = shrunk_spec(spec, cylinders=args.cylinders)

    plan = None
    if args.inject:
        total_sectors = Drive(spec, cache_enabled=False).total_sectors
        plan = build_model(
            "bursts", **bursts_params(args.burst_mean)
        ).generate(total_sectors, args.horizon, args.seed)
    recorder = Recorder(wall_time=True)
    # Idle gate, Waiting threshold and spare pool are CFQScheduler's,
    # WaitingScrubber's and MediaFaults' own defaults (`repro detect`
    # runs Waiting at 10 ms and a 4096-sector pool: DESIGN §18).
    stack = ScrubStack(
        spec,
        ScrubberSetup(
            algorithm=args.algorithm, regions=args.regions,
            request_bytes=args.request_kb * 1024, threshold=0.1,
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
        stack.replay(load_trace(args))
    elif args.foreground:
        stack.reader("random", args.seed, args.think_ms / 1e3)
    # Drain in-flight scrub work so no request is left mid-lifecycle.
    stack.run(args.horizon, drain=True)
    device, drive, faults = stack.device, stack.drive, stack.faults

    # Operational losses belong in the table, not in footnotes: surface
    # the request-log ring overflow and cache segment evictions as
    # first-class counters so a truncated log or a thrashing cache is
    # visible in the same place as every other metric.
    recorder.metrics.counter("device.log_dropped").inc(device.log.dropped)
    recorder.metrics.counter("drive.cache_evictions").inc(
        drive.cache.evictions
    )
    print_telemetry(
        recorder.snapshot(), title="run telemetry",
        trace_out=args.out,
        events=lambda: recorder.chrome_events(
            process_name=f"{spec.name}:{args.algorithm}"
        ),
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
