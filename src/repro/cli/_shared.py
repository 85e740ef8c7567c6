"""What more than one command uses: the usage error, one builder per
repeated flag set, and the helpers that read a trace, open a corpus,
build a sweep runner, report telemetry and write ``--json``.  Library
imports stay inside the functions that need them, so building the
parser loads nothing a command will not run."""

import json
import os
from argparse import ArgumentParser


class UsageError(Exception):
    """The command line was wrong (a flag's value, a pair of flags, a
    file it names): ``main()`` prints ``repro <command>: <message>`` on
    stderr and exits 2, as argparse does for what it can check itself."""


def add_trace_source(parser, corpus=False, foreground=False, seed=0) -> None:
    """``--trace | --synthetic`` as one exclusive group, and the flags
    that qualify them.  ``corpus`` adds ``--corpus`` to the group.
    ``foreground`` is the `detect` / `trace` variant, where the trace
    is the workload next to the scrubber: ``--foreground`` (a random
    reader) joins the group, no member is required, a synthetic trace
    runs a minute, not four hours, and no idle intervals are extracted
    (``--service-ms``)."""
    source = parser.add_mutually_exclusive_group(required=not foreground)
    source.add_argument(
        "--trace", metavar="FILE",
        help="CSV trace file (canonical or MSR dialect)",
    )
    source.add_argument(
        "--synthetic", metavar="NAME",
        help="synthetic catalog trace (see `repro generate --list`)",
    )
    if corpus:
        source.add_argument(
            "--corpus", metavar="DIR",
            help="on-disk trace corpus directory (see `repro corpus build`)",
        )
    if foreground:
        source.add_argument(
            "--foreground", action="store_true",
            help="run a closed-loop random reader alongside the scrubber",
        )
    parser.add_argument(
        "--duration", type=float, default=60.0 if foreground else 4 * 3600.0,
        help="synthetic trace length in seconds (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--max-requests", type=int, default=None,
        help="stop parsing a --trace CSV after this many requests "
        "(huge traces load only the prefix an experiment needs)",
    )
    if not foreground:
        parser.add_argument(
            "--service-ms", type=float, default=None,
            help="nominal per-request positioning time for idle extraction "
            "(default: the catalog entry's with --synthetic, 0.2 for TPC-C "
            "and 4.0 for the rest; 4.0 with --trace)",
        )


def load_trace(args, name=None):
    """The trace a command reads: ``--trace`` (a CSV file) or a catalog
    entry (``--synthetic``; `generate` passes its ``--name``).  The one
    place a user's file or catalog name enters: a missing file, a
    malformed row and an unknown name leave as :class:`UsageError` with
    the exception's own message (path, line number, the catalog)."""
    from repro.traces import generate_trace, read_csv_trace
    from repro.traces.io import TraceFormatError

    try:
        if name is None and args.trace:
            return read_csv_trace(args.trace, max_requests=args.max_requests)
        return generate_trace(
            name or args.synthetic, duration=args.duration, seed=args.seed
        )
    except (OSError, TraceFormatError) as exc:
        raise UsageError(str(exc)) from None
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def idle_positioning(args) -> float:
    """Seconds of positioning per request that idle extraction assumes:
    ``--service-ms`` when given, else the catalog entry's own with
    ``--synthetic`` and 4 ms otherwise."""
    from repro.traces.catalog import CATALOG
    from repro.traces.idle import DEFAULT_POSITIONING

    if args.service_ms is not None:
        return args.service_ms / 1e3
    if args.synthetic:
        return CATALOG[args.synthetic].service_positioning
    return DEFAULT_POSITIONING


def open_corpus(path: str):
    """The :class:`~repro.traces.store.TraceCorpus` at ``path``."""
    from repro.traces.store import TraceCorpus, TraceStoreError

    try:
        return TraceCorpus.open(path)
    except TraceStoreError as exc:
        raise UsageError(str(exc)) from None


def drive_spec(name: str):
    from repro.disk.models import PRESETS

    if name not in PRESETS:
        raise UsageError(
            f"unknown drive {name!r}; choose from {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]()


def bursts_params(burst_mean: float) -> dict:
    """The ``bursts`` fault model's parameters from ``--burst-mean``:
    bursts that far apart, errors within one fifty times denser."""
    return dict(
        inter_burst_mean=burst_mean, in_burst_time_mean=burst_mean / 50.0
    )


def add_sweep_flags(parser: ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the sweep (0 = in-process serial)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="cache sweep results on disk ($REPRO_CACHE_DIR or "
        "~/.cache/repro/sweeps)",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="cache directory (implies --cache)"
    )


def build_runner(args, metrics=None):
    """A SweepRunner from --workers/--cache/--cache-dir, or ``None``;
    ``metrics`` meters the runner, its worker pool and its cache."""
    from repro.parallel import ResultCache, SweepRunner

    use_cache = args.cache or args.cache_dir
    if not args.workers and not use_cache and metrics is None:
        return None
    cache = ResultCache(args.cache_dir or None, metrics=metrics) if use_cache else None
    return SweepRunner(workers=args.workers, cache=cache, metrics=metrics)


def add_telemetry_flags(parser: ArgumentParser, telemetry: str, trace_out="") -> None:
    """``--telemetry`` and, given its help text, ``--trace-out FILE``."""
    parser.add_argument("--telemetry", action="store_true", help=telemetry)
    if trace_out:
        parser.add_argument("--trace-out", metavar="FILE", default=None, help=trace_out)


def print_telemetry(snapshot=None, title="", trace_out=None, events=None, runs=""):
    """The metrics table of ``snapshot`` (when given), then what
    ``events()`` returns as a Chrome trace in ``trace_out`` (when given)."""
    from repro.obs.metrics import format_table
    from repro.obs.trace import write_chrome_trace

    if snapshot is not None:
        print(format_table(snapshot, title=title))
    if trace_out:
        count = write_chrome_trace(trace_out, list(events()))
        print(
            f"wrote {count} trace events{runs} to {trace_out} "
            f"(load in Perfetto or chrome://tracing)"
        )


def add_campaign_spec_flags(parser: ArgumentParser) -> None:
    """Flags that define a campaign spec, shared by fleet and submit."""
    parser.add_argument("--groups", type=int, default=10_000)
    parser.add_argument("--disks", type=int, default=8, help="drives per group")
    parser.add_argument("--raid", choices=("raid5", "raid1", "none"), default="raid5")
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


def _parse_policy(text: str):
    """``alg[:regions][@period_hours]`` -> ScrubPolicySpec: ``sequential``,
    ``staggered:64``, ``sequential@336``, ``staggered:128@168``.  The
    policy name encodes the parameters so repeated flags stay
    distinguishable in the output table."""
    from repro.fleet import ScrubPolicySpec

    head, at, period_text = text.strip().partition("@")
    algorithm, colon, regions_text = head.partition(":")
    algorithm = algorithm or "sequential"
    try:
        period_hours = float(period_text) if at else 168.0
        regions = int(regions_text) if colon else 128
        order = f"staggered{regions}" if algorithm == "staggered" else algorithm
        return ScrubPolicySpec(
            name=f"{order}-{period_hours:g}h", algorithm=algorithm,
            regions=regions, period_hours=period_hours,
        )
    except ValueError as exc:
        raise UsageError(f"--policy {text!r}: {exc}") from None


def campaign_spec_from_args(args):
    """Build a validated CampaignSpec from the shared fleet/submit flags."""
    from repro.fleet import CampaignSpec, DriveClass, FleetSpec

    policies = tuple(
        _parse_policy(text)
        for text in args.policy or ["sequential@168", "staggered:128@168"]
    )
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise UsageError(f"duplicate policies after parsing: {names}")
    try:
        drives = DriveClass(
            preset=args.drive, mttf_hours=args.mttf_hours,
            lse_burst_rate_per_hour=args.lse_rate,
        )
        fleet = FleetSpec(
            groups=args.groups, disks_per_group=args.disks,
            raid_level=args.raid, mttr_hours=args.mttr_hours,
            spare_delay_hours=args.spare_delay_hours, classes=(drives,),
        )
        return CampaignSpec(
            fleet=fleet, policies=policies, mission_years=args.mission_years,
            seed=args.seed, shards=args.shards,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def add_supervision_flags(parser: ArgumentParser) -> None:
    """How a campaign's shards are run and watched (fleet, serve); the
    handler refuses values no runner can use with
    :func:`check_supervision_flags` before it starts anything."""
    parser.add_argument(
        "--workers", type=int, default=0,
        help="supervised worker processes per campaign (0/1 = serial)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-shard deadline in seconds (hung workers are killed "
        "and the shard retried)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard before it is abandoned (default 3)",
    )
    parser.add_argument(
        "--status-interval", type=float, default=2.0,
        help="seconds between progress lines of 'repro fleet --monitor' "
        "(default %(default)s); 'repro serve' accepts and ignores it",
    )


def check_supervision_flags(args) -> None:
    """Refuse the :func:`add_supervision_flags` values no runner can use."""
    if args.max_attempts < 1:
        raise UsageError(f"--max-attempts must be >= 1: {args.max_attempts}")
    if args.workers < 0:
        raise UsageError(f"--workers must be >= 0: {args.workers}")
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise UsageError(f"--task-timeout must be > 0: {args.task_timeout:g}")
    if args.status_interval < 0:
        raise UsageError(
            f"--status-interval must be >= 0: {args.status_interval:g}"
        )


def check_sizes(args, positive=(), non_negative=()) -> None:
    """Refuse a size no stack can be built with: each flag named in
    ``positive`` must be > 0, each in ``non_negative`` >= 0, and NaN is
    neither (names are ``args`` attributes; each element of a list-valued
    flag is checked; an optional flag left unset passes)."""
    for names, rule, bad in (
        (positive, "> 0", lambda value: not value > 0),
        (non_negative, ">= 0", lambda value: not value >= 0),
    ):
        for name in names:
            values = getattr(args, name)
            if values is None:
                continue
            for value in values if isinstance(values, list) else [values]:
                if bad(value):
                    flag = "--" + name.replace("_", "-")
                    raise UsageError(f"{flag} must be {rule}: {value:g}")


def print_table(columns, rows) -> None:
    """A header and one line per row: ``columns`` is ``(header, width)``
    pairs, each row one cell per column; the first column is flush left,
    the rest flush right.  The per-policy loss table of `fleet`, and of
    `submit --wait` with fewer columns."""
    for cells in [[header for header, _ in columns], *rows]:
        print("".join(
            f"{cell:{'>' if index else '<'}{columns[index][1]}}"
            for index, cell in enumerate(cells)
        ))


def check_json_target(path) -> None:
    """Refuse a ``--json FILE`` that cannot be written *before* the
    campaign it reports runs (:func:`write_json` needs its directory)."""
    directory = os.path.dirname(os.path.abspath(path)) if path else None
    if directory and not os.access(directory, os.W_OK):
        raise UsageError(f"--json {path}: cannot write in {directory}")


def write_json(path: str, payload) -> None:
    from repro.obs.export import atomic_write

    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
