"""``repro generate``: write a synthetic catalog trace to CSV (``--list``
prints the catalog)."""

from ._shared import UsageError, load_trace


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="write a synthetic trace to CSV"
    )
    parser.add_argument("--name", help="catalog trace name")
    parser.add_argument("--output", "-o", help="output CSV path (.gz ok)")
    parser.add_argument("--duration", type=float, default=4 * 3600.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true", help="list catalog entries")
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.traces import CATALOG, write_csv_trace

    if args.list:
        for name, spec in sorted(CATALOG.items()):
            print(f"{name:<12} {spec.collection:<16} {spec.description}")
        return 0
    if not args.name or not args.output:
        raise UsageError("needs --name and --output (or --list)")
    trace = load_trace(args, name=args.name)
    write_csv_trace(trace, args.output)
    print(f"wrote {len(trace):,} requests ({trace.duration / 3600:.2f} h) to {args.output}")
    return 0
