"""Command-line interface: ``python -m repro <command>``.

**Dispatch.**  :data:`COMMANDS` is the ordered command table; each name
is a module of this package holding that command's ``register(
subparsers)`` -- flags, help and epilogue -- next to the handler
``register`` binds as ``func`` (the module's docstring is the command's
description).  :func:`build_parser` imports the thirteen modules and
calls each ``register``; :func:`main` parses and calls ``args.func(
args)``.  No command module imports the library at module level:
handlers import what they run, so building the parser loads nothing
``import repro`` had not (``repro.verify``, ``repro.fleet``,
``repro.service`` load under the commands that run them).

**Shared flags.**  A flag set more than one command takes is one builder
in :mod:`._shared` (trace source, sweep workers and cache, shard
supervision, campaign spec, ``--telemetry`` / ``--trace-out``), called
by every command that takes it.

**Exit codes** are :data:`EXIT_CODES` below, the epilogue of ``repro
--help``.  A handler raises :class:`~._shared.UsageError` for what
argparse cannot check; :func:`main` prints it as ``repro <command>:
<message>`` and returns 2.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

#: Top-level commands in ``--help`` order, one module each.
COMMANDS = (
    "generate", "corpus", "analyze", "optimize", "throughput", "detect",
    "trace", "verify", "mlet", "fleet", "report", "serve", "submit",
)

EXIT_CODES = """exit codes:
  0  done
  1  the command ran and found a failure: a verify mismatch or missed
     planted bug, a corpus integrity error, no idle intervals to analyze
     or optimize, a fleet invariant violation, a service that cannot be
     reached or rejects the job
  2  the command line was wrong: a bad flag, value, file or name
  3  a campaign or job finished degraded (completeness < 1)"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Practical Scrubbing (DSN 2012) reproduction toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        import_module(f"{__name__}.{name}").register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    from ._shared import UsageError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
