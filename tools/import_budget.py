"""Import budget: what each entry point of the stack loads before it works.

``make import-budget`` runs this.  For every public package, and then
for three short scenarios, a fresh interpreter imports / runs it and
reports wall seconds, ``len(sys.modules)``, max RSS and the scipy
modules it ended up holding.  The contract (DESIGN section 17):

* importing any package of ``repro`` loads no scipy module at all;
* neither does the tuning path (``generate_trace`` ->
  ``trace_idle_intervals`` -> ``SuccessiveHalvingSearch.search``) nor a
  trace replay (``replay_with_scrubber``);
* a fleet campaign ends holding ``scipy.special`` (the Poisson interval
  of its merge) and scipy's private helpers, never ``stats``,
  ``signal``, ``optimize``, ``sparse``, ``interpolate``, ``integrate``
  or ``linalg``.

Exit status 1 when a row holds a module it may not.  The seconds and
megabytes are printed for the reader and never judged here (this box
runs the same work 0.8-1.5x from minute to minute; ``bench/run.py``'s
``setup_s`` and ``peak_rss_mb`` are the judged numbers).
``tests/test_import_contract.py`` calls :func:`measure` and
:func:`forbidden` for the same rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, FrozenSet, List, Sequence, Tuple

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

PACKAGES = (
    "repro",
    "repro.cli",
    "repro.fleet",
    "repro.service",
    "repro.parallel",
    "repro.analysis",
    "repro.traces",
    "repro.verify",
    "repro.obs",
)

_TUNE = """
from repro.analysis.service_model import ScrubServiceModel
from repro.core.search import SuccessiveHalvingSearch
from repro.disk.models import PRESETS
from repro.traces import generate_trace
from repro.traces.catalog import CATALOG, trace_idle_intervals
profile = CATALOG["HPc6t5d1"].profile
assert profile.gap_autocorr != 0 and not profile.memoryless  # the AR(1) path
trace = generate_trace("HPc6t5d1", duration=600, seed=1)
_, durations = trace_idle_intervals("HPc6t5d1", trace)
model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
SuccessiveHalvingSearch(durations, len(trace), trace.duration, model).search(0.002)
"""

_REPLAY = """
from repro.analysis import replay_with_scrubber
from repro.disk.models import PRESETS
from repro.traces import generate_trace
trace = generate_trace("MSRsrc11", duration=60, seed=1)
result = replay_with_scrubber(
    trace, PRESETS["ultrastar"](), horizon=5.0,
    waiting={"threshold": 0.1, "request_bytes": 65536},
)
assert result.fg_requests > 0 and result.scrub_requests > 0
"""

_CAMPAIGN = """
from repro.fleet import (
    CampaignRunner, CampaignSpec, DriveClass, FleetSpec, ScrubPolicySpec,
)
result = CampaignRunner(CampaignSpec(
    fleet=FleetSpec(
        groups=40, disks_per_group=4,
        classes=(DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),),
    ),
    policies=(ScrubPolicySpec(name="weekly", latent_window_hours=84.0),),
    mission_years=5.0, seed=3, shards=2,
)).run()
assert result.policies[0].mttdl_ci_hours[0] > 0  # the merge computed its interval
"""

#: name -> (source run in the fresh interpreter, public scipy
#: subpackages it may end up holding).
SCENARIOS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "tune": (_TUNE, frozenset()),
    "replay": (_REPLAY, frozenset()),
    "campaign": (_CAMPAIGN, frozenset({"special"})),
}

_PROLOGUE = """
import json, resource, sys, time
_start = time.perf_counter()
"""

_EPILOGUE = """
_seconds = time.perf_counter() - _start
print(json.dumps({
    "seconds": _seconds,
    "modules": len(sys.modules),
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted({
        ".".join(name.split(".")[:2]) for name in sys.modules
        if name.split(".")[0] == "scipy"
    }),
}))
"""


def measure(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; what it cost and what it holds.

    ``scipy`` lists the loaded scipy modules cut to two levels
    (``scipy``, ``scipy.special``, ``scipy._lib``, ...).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + body + _EPILOGUE],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"probe exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def forbidden(
    loaded: Sequence[str], allowed: FrozenSet[str] = frozenset()
) -> List[str]:
    """The entries of ``loaded`` (see :func:`measure`) that break the contract.

    With nothing allowed, any scipy module at all.  Otherwise the public
    subpackages outside ``allowed``: scipy's private top-level helpers
    (``_lib``, ``__config__``, ``version``, ...) come with any
    subpackage and are not judged.
    """
    if not allowed:
        return list(loaded)
    subpackages = {name.split(".")[1] for name in loaded if "." in name}
    return sorted(
        f"scipy.{sub}" for sub in subpackages
        if not sub.startswith("_") and sub != "version" and sub not in allowed
    )


def main() -> int:
    rows = [(f"import {name}", f"import {name}", frozenset()) for name in PACKAGES]
    rows += [(name, body, allowed) for name, (body, allowed) in SCENARIOS.items()]
    print(f"{'row':<24} {'seconds':>8} {'modules':>8} {'rss MB':>8}  scipy")
    failed = False
    for label, body, allowed in rows:
        report = measure(body)
        bad = forbidden(report["scipy"], allowed)
        failed = failed or bool(bad)
        held = ", ".join(report["scipy"]) or "-"
        print(
            f"{label:<24} {report['seconds']:>8.3f} {report['modules']:>8d} "
            f"{report['rss_mb']:>8.1f}  {held}"
            + (f"   FORBIDDEN: {', '.join(bad)}" if bad else "")
        )
    print("import budget [FAIL]" if failed else "import budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
