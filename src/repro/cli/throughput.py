"""``repro throughput``: standalone scrub throughput (Fig. 5) for one
algorithm and request size on an otherwise idle drive."""

from ._shared import (
    add_telemetry_flags, check_sizes, drive_spec, print_telemetry,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "throughput", help="standalone scrub throughput"
    )
    parser.add_argument("--drive", default="ultrastar")
    parser.add_argument(
        "--algorithm", choices=("sequential", "staggered"), default="sequential"
    )
    parser.add_argument("--regions", type=int, default=128)
    parser.add_argument("--request-kb", type=int, default=64)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    parser.add_argument("--horizon", type=float, default=10.0)
    add_telemetry_flags(
        parser, "print a metrics summary table for the run",
        trace_out="write a Chrome trace-event JSON of the run",
    )
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.analysis import standalone_scrub_throughput
    from repro.core import SequentialScrub, StaggeredScrub
    from repro.obs.sink import Recorder

    staggered = ("regions",) if args.algorithm == "staggered" else ()
    check_sizes(
        args, positive=("request_kb", "horizon") + staggered,
        non_negative=("delay_ms",),
    )
    spec = drive_spec(args.drive)
    if args.algorithm == "sequential":
        algorithm = SequentialScrub()
    else:
        algorithm = StaggeredScrub(args.regions)
    recorder = Recorder(wall_time=True) if args.telemetry or args.trace_out else None
    rate = standalone_scrub_throughput(
        spec, algorithm, request_bytes=args.request_kb * 1024,
        horizon=args.horizon, delay=args.delay_ms / 1e3,
        telemetry=recorder,
    )
    full_scan_h = spec.capacity_bytes / rate / 3600 if rate else float("inf")
    print(
        f"{spec.name}: {args.algorithm} "
        f"({args.regions if args.algorithm == 'staggered' else '-'} regions), "
        f"{args.request_kb} KB requests -> {rate / 1e6:.1f} MB/s "
        f"(full scan in {full_scan_h:.1f} h)"
    )
    if recorder is not None:
        print_telemetry(
            recorder.metrics.snapshot() if args.telemetry else None,
            title="run telemetry",
            trace_out=args.trace_out,
            events=lambda: recorder.chrome_events(
                process_name=f"{spec.name}:{args.algorithm}"
            ),
        )
    return 0
