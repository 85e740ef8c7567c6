"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the base) and ``B`` are run records written by ``run.py`` — a
file each, or a directory of them each.  Per workload and end-to-end
metric this prints both sides' median and quartiles and a verdict:

``same``        B's median is within the metric's bound of A's
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  the run-to-run spread (the wider side's interquartile
                range over A's median) exceeds the bound and the two
                sides' ranges overlap, so nothing can be said

and whether a gain may be *claimed*: at least ten pairs (runs paired
in file order, so interleave the sides when measuring), B better in
nine tenths of them with ties counting for neither, and the medians
further apart than A's own interquartile range.

Simulated outputs are exact for a seed, so ``result_digest`` and the
exact counts get their own rows: any difference is ``DRIFT``.  Exit
status is 1 on a ``worse`` verdict, on drift, or on a run whose output
checks failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load(path: Path) -> list:
    """Run records of one side, in file-name order."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and "result_digest" in doc:
            records.append(doc)
    if not records:
        raise SystemExit(f"compare: no run records in {path}")
    return records


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(a: list, b: list, better: str, bound: float) -> tuple:
    """``(verdict, worsening, claim)`` of B against base A."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worsening = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med) if a_med else 0.0
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif worsening < -bound:
        verdict = "better"
    else:
        verdict = "same"

    pairs = list(zip(a, b))
    if len(pairs) < CLAIM_MIN_PAIRS:
        claim = f"no (pairs {len(pairs)}<{CLAIM_MIN_PAIRS})"
    else:
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        ok = wins >= CLAIM_WIN_SHARE * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1
        claim = f"{'yes' if ok else 'no'} ({wins}/{len(pairs)} pairs)"
    return verdict, worsening, claim


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    side_a, side_b = (load(Path(arg)) for arg in argv)
    status = 0

    header = (
        f"{'workload':<15} {'metric':<12} {'A median [q1, q3] n':<40} "
        f"{'B median [q1, q3] n':<40} {'worse by':>9} {'bound':>6}  verdict     claim"
    )
    print(header)
    for workload in (w["name"] for w in contract["workloads"]):
        runs_a = [r for r in side_a if r["workload"] == workload]
        runs_b = [r for r in side_b if r["workload"] == workload]
        if not runs_a or not runs_b:
            continue
        for runs, label in ((runs_a, "A"), (runs_b, "B")):
            bad = [r for r in runs if not r["correct"]]
            if bad:
                status = 1
                print(f"{workload:<15} {len(bad)} run(s) of {label} failed output checks")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a if not r["trace"]]
            b = [r["metrics"][name]["value"] for r in runs_b if not r["trace"]]
            if not a or not b:
                continue
            verdict, worsening, claim = judge(a, b, metric["better"], metric["bound"])
            if verdict == "worse":
                status = 1
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            print(
                f"{workload:<15} {name:<12} {cells[0]:<40} {cells[1]:<40} "
                f"{worsening:>+9.1%} {metric['bound']:>6.0%}  {verdict:<11} {claim}"
            )
        # Exact for a seed, so compared seed by seed.
        for field in ("result_digest", "counts"):
            by_seed_a = {r["seed"]: r[field] for r in runs_a}
            by_seed_b = {r["seed"]: r[field] for r in runs_b}
            shared = sorted(set(by_seed_a) & set(by_seed_b))
            drift = [seed for seed in shared if by_seed_a[seed] != by_seed_b[seed]]
            if drift:
                status = 1
            state = "DRIFT at seed(s) " + ", ".join(map(str, drift)) if drift else (
                "same" if shared else "no seed in common"
            )
            print(f"{workload:<15} {field:<12} {state}")
    return status


if __name__ == "__main__":
    sys.exit(main())
