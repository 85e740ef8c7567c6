"""Hook budget: what an attached observer costs a run it must not change.

``make hook-budget`` runs this.  One row:

* ``monitor`` -- a serial fleet campaign (3000 RAID-5 groups of 8
  drives, two scrub policies, 10 mission years, 16 shards) run bare and
  under a :class:`~repro.obs.monitor.CampaignMonitor` at a 0.25 s
  interval, 8x the CLI's default rate.  The monitored runs share one
  directory: each appends to ``events.jsonl``, as a resumed campaign
  does, and writes no other file -- the status, summary and span trace
  are folds of that log (:class:`~repro.obs.report.CampaignFold`), paid
  for by whoever reads them, not by the run.  With no ``on_progress``
  callback the interval paces nothing, so no status is rendered mid-run.

The two sides run as ten back-to-back pairs, the order alternating from
pair to pair, and the row reads the median of the ten monitored / bare
wall-time ratios: a pair sees one machine state, the alternation
cancels a second-run advantage, and the median drops a pair that caught
a noise spike (single runs on a 2-vCPU VM swing by more than the
budget).

Exit status 1 when the median ratio exceeds 1.05, or when a monitored
run's results differ from the bare run's in any bit (the monitor's
passivity contract).  What the monitor writes is held by
``tests/test_obs_monitor.py`` and ``tests/test_obs_fold.py``.

The engine-level sinks (``Recorder``, ``InvariantSink``) have no row
here: ``Simulation.run`` calls a sink once per ``run()``, which
``tests/test_sim_one_loop.py`` holds, and what they cost where the
stack's hooks fire is counted in calls per request by ``make
stack-budget`` (its ``replay+recorder`` and ``replay+invariants`` rows).
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.fleet import (  # noqa: E402
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
)
from repro.obs.monitor import CampaignMonitor  # noqa: E402

PAIRS = 10
LIMIT = 0.05
INTERVAL = 0.25


def make_spec(groups: int = 3000) -> CampaignSpec:
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=8,
            mttr_hours=24.0,
            spare_delay_hours=4.0,
            classes=(
                DriveClass(mttf_hours=1.0e5, lse_burst_rate_per_hour=1e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=62.0,
            ),
        ),
        mission_years=10.0,
        seed=0,
        shards=16,
    )


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def measure(spec: CampaignSpec, out_dir: str) -> dict:
    """``PAIRS`` interleaved bare / monitored runs of ``spec``."""
    def bare():
        return CampaignRunner(spec).run()

    def monitored():
        monitor = CampaignMonitor(out_dir, interval=INTERVAL)
        return CampaignRunner(spec, monitor=monitor).run()

    CampaignRunner(make_spec(groups=100)).run()  # first-use costs
    ratios, bare_s, monitored_s, identical = [], [], [], True
    for index in range(PAIRS):
        if index % 2 == 0:
            plain, plain_s = _timed(bare)
            watched, watched_s = _timed(monitored)
        else:
            watched, watched_s = _timed(monitored)
            plain, plain_s = _timed(bare)
        ratios.append(watched_s / plain_s)
        bare_s.append(plain_s)
        monitored_s.append(watched_s)
        identical = identical and (
            watched.metrics_dict() == plain.metrics_dict()
            and watched.telemetry == plain.telemetry
        )
    return {
        "ratios": ratios,
        "median": statistics.median(ratios),
        "bare_s": statistics.median(bare_s),
        "monitored_s": statistics.median(monitored_s),
        "identical": identical,
    }


def over_budget(report: dict) -> bool:
    return report["median"] - 1.0 > LIMIT or not report["identical"]


def main() -> int:
    spec = make_spec()
    with tempfile.TemporaryDirectory() as tmp:
        report = measure(spec, tmp)
    bad = over_budget(report)
    print(
        f"{'row':<8} {'bare s':>7} {'monitored s':>11} {'median':>7} "
        f"{'limit':>6}  bit-identical  ratios"
    )
    print(
        f"{'monitor':<8} {report['bare_s']:>7.3f} {report['monitored_s']:>11.3f} "
        f"{(report['median'] - 1.0) * 100:>+6.1f}% {LIMIT * 100:>5.0f}%  "
        f"{'yes' if report['identical'] else 'NO':<13}  "
        + " ".join(f"{ratio:.3f}" for ratio in report["ratios"])
    )
    print("hook budget [FAIL]" if bad else "hook budget [OK]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
