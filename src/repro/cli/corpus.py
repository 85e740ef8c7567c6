"""``repro corpus``: build, list and re-hash an on-disk columnar trace
corpus (``corpus build`` / ``list`` / ``verify``).  ``verify`` is a
checker: exit 1 means a chunk failed its hash, 2 that the directory is
not a corpus."""

import sys

from ._shared import UsageError, open_corpus


def register(subparsers) -> None:
    corpus = subparsers.add_parser(
        "corpus", help="build / inspect an on-disk trace corpus"
    )
    sub = corpus.add_subparsers(dest="corpus_command", required=True)
    build = sub.add_parser(
        "build", help="generate catalog traces into a columnar corpus"
    )
    build.add_argument("--out", "-o", required=True, metavar="DIR")
    build.add_argument(
        "--names", nargs="+", default=None, metavar="NAME",
        help="catalog entries to include (default: all)",
    )
    build.add_argument("--duration", type=float, default=None)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--repetitions", type=int, default=1,
        help="tile each trace N times end-to-end (multi-GB corpora)",
    )
    build.add_argument(
        "--chunk-requests", type=int, default=None,
        help="requests per on-disk chunk (default 1Mi = 25MiB chunks)",
    )
    build.set_defaults(func=run_build)
    for name, func, text in (
        ("list", run_list, "list a corpus's entries"),
        ("verify", run_verify, "re-hash every chunk of every entry"),
    ):
        parser = sub.add_parser(name, help=text)
        parser.add_argument("dir", metavar="DIR")
        parser.set_defaults(func=func)


def run_build(args) -> int:
    from repro.traces.catalog import generate_corpus
    from repro.traces.store import TraceStoreError

    try:
        corpus = generate_corpus(
            args.out, names=args.names, duration=args.duration,
            seed=args.seed, repetitions=args.repetitions,
            chunk_requests=args.chunk_requests,
        )
    except (TraceStoreError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    print(f"built corpus at {corpus.root} ({len(corpus)} entries)")
    for name in corpus.names():
        row = corpus.describe(name)
        print(
            f"  {name:<12} {row['requests']:>12,} requests  "
            f"{row['duration'] / 3600:8.2f} h  {row['chunks']} chunks"
        )
    return 0


def run_list(args) -> int:
    corpus = open_corpus(args.dir)
    print(f"{'entry':<12} {'requests':>12}  {'hours':>8}  {'chunks':>6}  digest")
    for name in corpus.names():
        row = corpus.describe(name)
        print(
            f"{name:<12} {row['requests']:>12,}  "
            f"{row['duration'] / 3600:8.2f}  {row['chunks']:>6}  "
            f"{row['digest'][:12]}"
        )
    return 0


def run_verify(args) -> int:
    from repro.traces.store import StoreIntegrityError, TraceStoreError

    corpus = open_corpus(args.dir)
    failures = 0
    for name in corpus.names():
        try:
            corpus.entry(name).verify()
        except (StoreIntegrityError, TraceStoreError, OSError) as exc:
            failures += 1
            print(f"{name:<12} FAILED: {exc}", file=sys.stderr)
            continue
        print(f"{name:<12} ok")
    return 1 if failures else 0
