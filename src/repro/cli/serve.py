"""Run the campaign orchestration service until interrupted: a
persistent content-addressed job queue (duplicate submissions are
answered from the existing job), a fair-share scheduler feeding
supervised CampaignRunner slots, and an HTTP API -- POST/GET /campaigns,
NDJSON event streaming, HTML reports, DELETE to cancel.  Kill -9 the
service and restart it on the same --data-dir: interrupted campaigns
re-queue and resume from their shard checkpoints bit-identically."""

import time

from ._shared import add_supervision_flags, check_supervision_flags


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="campaign orchestration service: async job API over the "
        "fleet runner",
        description=__doc__,
    )
    parser.add_argument(
        "--data-dir", metavar="DIR", default="service-data",
        help="service state root: job records + per-campaign journals "
        "(default %(default)s)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = ephemeral; default %(default)s)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=1,
        help="campaigns executing concurrently (default %(default)s)",
    )
    parser.add_argument(
        "--client-quota", type=int, default=0,
        help="max running jobs per client, 0 = unlimited",
    )
    add_supervision_flags(parser)
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.service import CampaignService

    check_supervision_flags(args)
    service = CampaignService(
        args.data_dir, host=args.host, port=args.port,
        max_jobs=args.max_jobs, workers=args.workers,
        client_quota=args.client_quota, task_timeout=args.task_timeout,
        max_attempts=args.max_attempts, status_interval=args.status_interval,
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
