"""``repro fleet``: fleet-scale reliability campaign -- MTTDL and
P(data loss) per scrub policy over tens of thousands of drives, with
durable per-shard checkpoints (``--journal``), bit-identical resume
(``--resume``), fault-tolerant supervised workers and live
observability (``--monitor``: progress lines, ``status.json``, event
log, span trace, Prometheus textfile)."""

import argparse
import math
import os
import sys

from ._shared import (
    UsageError, add_campaign_spec_flags, add_supervision_flags,
    add_telemetry_flags, campaign_spec_from_args, check_json_target,
    check_supervision_flags, print_table, print_telemetry, write_json,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
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
    add_campaign_spec_flags(parser)
    add_supervision_flags(parser)
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="durable checkpoint directory (enables resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="require an existing journal and skip its completed shards",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the fleet metrics as JSON",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="attach a CampaignMonitor: live progress lines, status.json, "
        "events.jsonl, span trace and run summary in the obs directory",
    )
    parser.add_argument(
        "--monitor-dir", metavar="DIR", default=None,
        help="observability output directory (implies --monitor; default "
        "<journal>/obs, or ./fleet-obs without a journal)",
    )
    add_telemetry_flags(
        parser, "print campaign/supervision/cache counters",
        trace_out="also write the campaign span trace (Perfetto JSON) here "
        "(needs --monitor)",
    )
    parser.add_argument(
        "--prom-out", metavar="FILE", default=None,
        help="write the final merged telemetry snapshot as a Prometheus "
        "textfile (node_exporter textfile-collector format)",
    )
    parser.set_defaults(func=run)


def _years(hours: float, unit: str = "y") -> str:
    from repro.raid.reliability import HOURS_PER_YEAR

    years = hours / HOURS_PER_YEAR
    return f"{years:.1f}{unit}" if math.isfinite(years) else "inf"


def run(args) -> int:
    from repro.fleet import CampaignRunner, JournalError, campaign_digest
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.supervise import RetryPolicy
    from repro.verify import InvariantViolation

    check_supervision_flags(args)
    if args.resume and not args.journal:
        raise UsageError("--resume needs --journal DIR to resume from")
    if args.trace_out and not (args.monitor or args.monitor_dir):
        raise UsageError(
            "--trace-out needs --monitor (the span recorder lives "
            "in the campaign monitor)"
        )
    if args.resume and not os.path.isfile(
        os.path.join(args.journal, "manifest.json")
    ):
        raise UsageError(
            f"--resume but {args.journal} has no manifest.json "
            "(nothing to resume; drop --resume to start fresh)"
        )
    check_json_target(args.json)

    spec = campaign_spec_from_args(args)
    metrics = MetricsRegistry() if args.telemetry else None
    monitor = None
    if args.monitor or args.monitor_dir:
        from repro.obs.monitor import CampaignMonitor

        obs_dir = args.monitor_dir or (
            os.path.join(args.journal, "obs") if args.journal else "fleet-obs"
        )
        # Progress goes to stderr so result tables and --json stay clean
        # for pipelines.
        monitor = CampaignMonitor(
            obs_dir, interval=args.status_interval,
            on_progress=lambda line: print(line, file=sys.stderr),
        )
    retry = RetryPolicy(max_attempts=args.max_attempts, seed=args.seed)
    runner = CampaignRunner(
        spec, journal_dir=args.journal, workers=args.workers,
        task_timeout=args.task_timeout, retry=retry, metrics=metrics,
        monitor=monitor,
    )
    print(
        f"campaign {campaign_digest(spec)[:12]}: "
        f"{spec.fleet.groups:,} x {args.raid} groups "
        f"({spec.fleet.drives:,} drives), {len(spec.policies)} policies, "
        f"{args.mission_years:g}y mission, {spec.shards} shards"
        + (f", journal {args.journal}" if args.journal else "")
    )
    try:
        result = runner.run()
    except InvariantViolation as exc:
        print(f"fleet: invariant violation: {exc}", file=sys.stderr)
        return 1
    except JournalError as exc:  # a foreign or torn --journal is a bad file
        raise UsageError(str(exc)) from None

    if result.shards_resumed:
        print(
            f"resumed {result.shards_resumed}/{result.shards_total} shards "
            f"from journal checkpoints"
        )
    print_table(
        (("policy", 22), ("window", 8), ("losses", 8), ("MTTDL", 10),
         ("95% CI", 20), ("P(loss)", 9), ("closed-form", 13)),
        [
            (
                p.name, f"{p.latent_window_hours:.1f}h", p.losses,
                _years(p.mttdl_hours),
                "[{:>6}, {:>6}]y".format(
                    *(_years(bound, "") for bound in p.mttdl_ci_hours)
                ),
                f"{p.p_loss_mission:.4f}", _years(p.closed_form_mttdl_hours),
            )
            for p in result.policies
        ],
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
        from repro.obs.prometheus import write_textfile

        write_textfile(args.prom_out, result.telemetry)
        print(f"wrote Prometheus textfile to {args.prom_out}")
    if args.json:
        payload = result.metrics_dict()
        payload["campaign_digest"] = campaign_digest(spec)
        payload["shards_resumed"] = result.shards_resumed
        payload["failed_shards"] = result.failed_shards
        payload["supervision"] = result.supervision
        write_json(args.json, payload)
        print(f"wrote fleet metrics to {args.json}")
    if metrics is not None:
        print_telemetry(metrics.snapshot(), title="campaign telemetry")
    return 0 if result.shards_failed == 0 else 3
