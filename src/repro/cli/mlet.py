"""``repro mlet``: mean latent error time by scrub order (sequential vs
staggered at several region counts) under bursty latent sector errors."""

import numpy as np

from ._shared import drive_spec


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "mlet", help="MLET by scrub order under bursty LSEs"
    )
    parser.add_argument("--drive", default="ultrastar")
    parser.add_argument("--sectors", type=int, default=1_000_000)
    parser.add_argument("--burst-length", type=float, default=4000.0)
    parser.add_argument("--regions", type=int, nargs="+", default=[16, 64, 128])
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.analysis import standalone_scrub_throughput
    from repro.core import SequentialScrub, StaggeredScrub
    from repro.core.mlet import (
        generate_bursts, mean_latent_error_time, sector_visit_times,
    )

    spec = drive_spec(args.drive)
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
