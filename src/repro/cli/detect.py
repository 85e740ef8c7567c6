"""``repro detect``: latent-sector-error detection and remediation per
scrub policy under injected errors, each policy run twice -- with and
without the ATA ``VERIFY``-from-cache firmware bug (paper Fig. 1)."""

import argparse

from ._shared import (
    UsageError, add_sweep_flags, add_telemetry_flags, add_trace_source,
    build_runner, bursts_params, check_sizes, drive_spec, load_trace,
    print_telemetry,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
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
    parser.add_argument("--drive", default="caviar")
    parser.add_argument(
        "--cylinders", type=int, default=50,
        help="shrink the drive to this many cylinders for a fast run",
    )
    parser.add_argument(
        "--algorithms", nargs="+", default=["sequential", "staggered", "waiting"]
    )
    parser.add_argument("--regions", type=int, default=16)
    parser.add_argument(
        "--model", choices=("bernoulli", "bursts"), default="bursts"
    )
    parser.add_argument(
        "--error-rate", type=float, default=1e-3,
        help="bernoulli per-sector error probability",
    )
    parser.add_argument(
        "--burst-mean", type=float, default=0.5,
        help="mean seconds between error bursts (bursts model)",
    )
    parser.add_argument("--horizon", type=float, default=5.0)
    parser.add_argument(
        "--no-drive-cache", dest="no_cache", action="store_true",
        help="disable the drive cache (suppresses the ATA bug entirely)",
    )
    add_trace_source(parser, foreground=True, seed=3)
    add_sweep_flags(parser)
    add_telemetry_flags(
        parser, "record every run and print a merged fleet metrics table",
        trace_out="write one Chrome trace JSON with a process row per run",
    )
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.analysis.detection import detection_sweep_task
    from repro.analysis.stack import ALGORITHMS
    from repro.obs.trace import with_pid
    from repro.parallel import SweepRunner

    if args.model == "bernoulli":
        model_params = {"per_sector_probability": args.error_rate}
    else:
        model_params = bursts_params(args.burst_mean)
    for algorithm in args.algorithms:
        if algorithm not in ALGORITHMS:
            raise UsageError(
                f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
            )
    staggered = ("regions",) if "staggered" in args.algorithms else ()
    check_sizes(args, positive=("horizon",) + staggered)
    # Loaded once here; SweepRunner's forked workers inherit it and the
    # cache is keyed on its content digest.
    fg_trace = load_trace(args) if args.trace or args.synthetic else None
    param_sets = [
        dict(
            drive=args.drive, cylinders=args.cylinders, algorithm=algorithm,
            regions=args.regions, model=args.model, model_params=model_params,
            horizon=args.horizon, seed=args.seed,
            cache_enabled=not args.no_cache, cache_bug=bug,
            foreground=args.foreground, trace=fg_trace,
            collect_telemetry=bool(args.telemetry or args.trace_out),
        )
        for algorithm in args.algorithms
        for bug in (False, True)
    ]
    runner = build_runner(args) or SweepRunner(workers=0)
    results = runner.map(detection_sweep_task, param_sets)
    verify = ["cached" if params["cache_bug"] else "media" for params in param_sets]
    print(f"{drive_spec(args.drive).name} (shrunk to {args.cylinders} cylinders), "
          f"model={args.model}, horizon={args.horizon}s, seed={args.seed}")
    print(
        f"{'policy':<11}{'verify':>8}{'inject':>8}{'detect':>8}{'scrub':>7}"
        f"{'fg':>5}{'masked':>8}{'missed':>8}{'remap':>7}{'MTTD':>9}  lifecycle"
    )
    for side, result in zip(verify, results):
        m = result.metrics
        mttd = (
            f"{m.mean_time_to_detection:8.2f}s"
            if m.mean_time_to_detection is not None
            else "      n/a"
        )
        lifecycle = "complete" if m.lifecycle_complete else "INCOMPLETE"
        print(
            f"{result.algorithm:<11}{side:>8}{m.injected:>8}{m.detected:>8}"
            f"{m.scrub_detected:>7}{m.foreground_detected:>5}"
            f"{m.cache_mask_events:>8}{m.missed_due_to_cache:>8}"
            f"{m.remapped:>7}{mttd}  {lifecycle}"
        )

    def events():
        """Every run's events, one Chrome-trace process row per run."""
        for pid, (side, result) in enumerate(zip(verify, results)):
            if result.telemetry is not None:
                yield from with_pid(
                    result.telemetry["events"], pid=pid,
                    process_name=f"{result.algorithm} verify={side}",
                )

    print_telemetry(
        SweepRunner.merge_task_telemetry(results) if args.telemetry else None,
        title=f"fleet telemetry ({len(results)} runs, merged)",
        trace_out=args.trace_out,
        events=events,
        runs=f" ({len(results)} runs)",
    )
    return 0
