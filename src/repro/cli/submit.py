"""Build a campaign spec from the same flags as 'repro fleet' (or
--spec-json FILE) and POST it to a running 'repro serve'.  Submitting
the same spec twice returns the same job.  --wait polls until the job
is terminal and prints the per-policy loss table; --status ID just
reports a job.  Exit 1: the service could not be reached, rejected the
job or did not finish it in time; 3: the job ended in any state but
'done'."""

import json
import sys

from ._shared import (
    UsageError, add_campaign_spec_flags, campaign_spec_from_args,
    check_json_target, print_table, write_json,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "submit",
        help="submit a campaign to a running 'repro serve' and optionally "
        "wait for its metrics",
        description=__doc__,
    )
    add_campaign_spec_flags(parser)
    parser.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default %(default)s)",
    )
    parser.add_argument(
        "--client", default="cli",
        help="client identity for fair-share / quotas (default %(default)s)",
    )
    parser.add_argument(
        "--spec-json", metavar="FILE", default=None,
        help="submit this campaign-spec JSON file instead of building "
        "one from flags",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its metrics",
    )
    parser.add_argument(
        "--timeout", type=float, default=3600.0,
        help="--wait timeout in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--status", metavar="JOB_ID", default=None,
        help="report an existing job instead of submitting",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the final job record as JSON (with --wait)",
    )
    parser.set_defaults(func=run)


def _failed(message) -> int:
    print(f"submit: {message}", file=sys.stderr)
    return 1


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


def run(args) -> int:
    from repro.fleet import spec_to_dict
    from repro.service import ServiceClient, ServiceTimeout

    try:
        client = ServiceClient(args.url, timeout=args.timeout, client=args.client)
    except ValueError as exc:
        raise UsageError(f"--url: {exc}") from None
    if args.status:
        return _status(args, client)
    check_json_target(args.json)
    if args.spec_json:
        try:
            with open(args.spec_json, encoding="utf-8") as handle:
                spec_dict = json.load(handle)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {args.spec_json}: {exc}") from None
    else:
        spec_dict = spec_to_dict(campaign_spec_from_args(args))
    try:
        status, payload = client.submit(spec_dict)
    except OSError as exc:
        return _failed(f"cannot reach {args.url}: {exc}")
    if status not in (200, 201):
        return _failed(f"rejected ({status}): {payload.get('error', payload)}")
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
        return _failed(exc)
    timing = _job_timing(final)
    print(
        f"submit: campaign {job['id'][:12]} -> {final['state']}"
        + (f" ({timing})" if timing else "")
    )
    if final["state"] == "done":
        metrics = final["result"]["metrics"]
        print_table(
            (("policy", 22), ("losses", 8), ("P(loss)", 10)),
            [
                (p["name"], p["losses"], f"{p['p_loss_mission']:.4f}")
                for p in metrics["policies"]
            ],
        )
        print(f"completeness {metrics['completeness']:.3f}")
    elif final.get("error"):
        print(f"submit: {final['error']}", file=sys.stderr)
    if args.json:
        write_json(args.json, final)
        print(f"wrote job record to {args.json}")
    return 0 if final["state"] == "done" else 3


def _status(args, client) -> int:
    try:
        status, payload = client.job(args.status)
    except OSError as exc:
        return _failed(f"cannot reach {args.url}: {exc}")
    if status != 200:
        return _failed(f"{status}: {payload.get('error', payload)}")
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
