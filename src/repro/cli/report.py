"""Render a campaign monitor's observability directory -- the
status.json / summary.json / events.jsonl written by 'repro fleet
--monitor' (or a CampaignMonitor) -- as a single-file HTML run report
with KPIs, the per-policy reliability table, shard-duration histogram
and kernel-phase breakdown.  Works on live and finished campaigns
alike."""

import os

from ._shared import UsageError


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "report",
        help="render a self-contained HTML report from a monitor obs dir",
        description=__doc__,
    )
    parser.add_argument(
        "obs_dir", metavar="OBS_DIR",
        help="observability directory (the fleet --monitor-dir)",
    )
    parser.add_argument(
        "--out", "-o", metavar="FILE", default=None,
        help="output HTML path (default <OBS_DIR>/report.html)",
    )
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.obs.report import build_report, load_obs_dir

    try:
        data = load_obs_dir(args.obs_dir)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from None
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
