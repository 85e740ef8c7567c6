"""``repro verify``: the correctness harness -- fuzz seeded
configurations through the runtime invariant checker and the
differential oracle (``--self-test`` first plants known bugs and
asserts each is caught).  A checker: exit 1 means a mismatch or a
missed planted bug, 2 that the command line was wrong."""

import argparse
import sys

#: ``repro.verify.AXES``, spelled out: importing ``repro.verify`` to
#: build the parser would cost every command ~50 modules
#: (tests/test_cli_contract.py holds the two equal).
AXES = ("kernel-twin", "telemetry", "parallel", "monitor", "fleet-kernel")


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "verify",
        help="fuzz seeded configs through the correctness harness",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Each fuzzed configuration runs under the runtime invariant\n"
            "checker (which holds every replayed request to the trace's\n"
            "schedule) and through the differential oracle's axes (no\n"
            "sink vs a live invariant sink, telemetry on vs off, serial\n"
            "vs forked-worker sweep, campaign monitor on vs off, fleet\n"
            "shard kernel vs its reference ledger).\n"
            "Any failing configuration is minimised and reprinted as a\n"
            "copy-pasteable repro snippet.  The same --seed always draws\n"
            "the same configurations."
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--configs", type=int, default=50,
        help="number of fuzzed configurations (default 50)",
    )
    parser.add_argument(
        "--axes", nargs="+", default=None, choices=AXES,
        help="restrict the differential oracle to these axes",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool size for the serial-vs-parallel axis (default 2)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="first plant each known seeded bug and assert it is caught "
        "(pass --configs 0 to run the self-test alone)",
    )
    parser.set_defaults(func=run)


def run(args) -> int:
    from repro.verify import fuzz, run_selftest

    status = 0
    if args.self_test:
        results = run_selftest()
        width = max(len(r.name) for r in results)
        for r in results:
            verdict = "caught" if r.caught else "MISSED"
            clean = "" if r.clean_after else "  [patch leaked!]"
            print(f"  {r.name:<{width}}  {verdict}{clean}")
            if not (r.caught and r.clean_after):
                status = 1
                for line in r.detail.splitlines():
                    print(f"    {line}")
        planted = len(results)
        caught = sum(1 for r in results if r.caught and r.clean_after)
        print(f"self-test: {caught}/{planted} planted bugs caught")
        if args.configs <= 0:
            return status

    # Live \r progress only on a terminal; CI logs get one line per
    # visited quartile instead of 200 carriage returns.
    interactive = sys.stderr.isatty()

    def progress(index: int, total: int) -> None:
        if interactive:
            print(f"  fuzz config {index + 1}/{total}", end="\r",
                  file=sys.stderr)
            sys.stderr.flush()
        elif total >= 8 and index % max(1, total // 4) == 0:
            print(f"  fuzz config {index + 1}/{total}", file=sys.stderr)

    report = fuzz(
        seed=args.seed,
        n=args.configs,
        axes=tuple(args.axes) if args.axes else None,
        parallel_workers=args.workers,
        progress=progress,
    )
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.describe())
    return status or (0 if report.ok else 1)
