"""The repo's benchmark: one command per workload.

    python3 bench/run.py --workload NAME --seed S [--seconds N] [--trace 0|1] [--quick]
    python3 bench/run.py --all --sets 2 [--seed S]

Generates the workload's inputs from the seed, runs it for about
``--seconds`` seconds, checks the outputs, prints every metric by name
with its unit, and ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (the
default) reports the end-to-end metrics; ``--trace 1`` spends half the
window untraced and half with timing proxies and spans, reports the
per-layer metrics and writes ``bench/out/trace-<workload>.json``.

Exits 0 when every output check passed, 1 when one failed, 2 when the
program under test is missing.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Workload name -> (module, class).  Modules import lazily: what a
#: workload imports is part of its ``setup_s``.
WORKLOADS = {
    "replay_scrub": ("wl_replay", "ReplayScrub"),
    "replay_dense": ("wl_replay", "ReplayDense"),
    "tune_tab3": ("wl_tune", "TuneTab3"),
    "fleet_campaign": ("wl_fleet", "FleetCampaign"),
    "service_mix": ("wl_service", "ServiceMix"),
}

QUICK_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured window (default: BENCHMARK.json run_seconds; 1 with --quick)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="seconds-long input sizes (what bench/test_bench.py runs)",
    )
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument(
        "--sets", type=int, default=1,
        help="with --all: run the whole list this many times and compare the sets",
    )
    parser.add_argument(
        "--out", default=str(BENCH / "out"),
        help="directory for run records (default bench/out)",
    )
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload and --all")
    return args


def save_record(result, out_dir: Path) -> Path:
    """Write the run record to the first unused numbered file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}-s{result.seed}-t{result.trace}"
    index = 0
    while (path := out_dir / f"{stem}-{index}.json").exists():
        index += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.record(), handle, indent=1, sort_keys=True)
    return path


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness

    clock = harness.HostClock("py")
    clock.mark()
    module, cls = WORKLOADS[args.workload]
    factory = getattr(importlib.import_module(module), cls)
    import_s = clock.lap()[0]
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else harness.load_contract()["run_seconds"]
    result = harness.run_workload(
        factory, args.seed, seconds, args.trace, args.quick, import_s
    )

    env = result.env
    print(
        f"# {result.workload} seed={result.seed} trace={result.trace} "
        f"quick={int(result.quick)} seconds={result.seconds:g} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"repro={env['repro']}"
    )
    for name, row in sorted(result.metrics.items()):
        print(f"{name:<44} {row['value']:>16.6g} {row['unit']}")
    for name, count in sorted(result.counts.items()):
        print(f"{name:<44} {count:>16d} count (exact for the seed)")
    print("samples " + json.dumps(result.sample_counts, sort_keys=True))
    for error in result.errors:
        print(f"FAILED CHECK: {error}", file=sys.stderr)
    print(f"record {save_record(result, Path(args.out))}")
    print(f"result_digest {result.result_digest}")
    print(result.final_line())
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Every workload, ``--sets`` times over; then how well the sets agree."""
    sys.path.insert(0, str(BENCH))
    import compare

    out = Path(args.out)
    status = 0
    set_dirs = []
    for index in range(1, args.sets + 1):
        set_dir = out / f"set{index}"
        set_dirs.append(set_dir)
        for workload in WORKLOADS:
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--trace", str(args.trace),
                "--out", str(set_dir),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            print(f"## set {index}: {workload}", flush=True)
            status |= subprocess.run(command).returncode
    for other in set_dirs[1:]:
        print(f"## {set_dirs[0]} against {other}")
        status |= compare.main([str(set_dirs[0]), str(other)])
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
