"""Import budget: what each entry point of the stack loads before it works.

``make import-budget`` runs this.  For every public package, and then
for five short scenarios, a fresh interpreter imports / runs it and
reports wall seconds, ``len(sys.modules)``, max RSS, the scipy modules
it ended up holding and how many modules of ``repro`` other than
package ``__init__`` modules it loaded; which thread first imported
each of :data:`WATCHED` is recorded as well.  A last row,
``serve-ready``, spawns ``repro serve`` and prints the median wall time
from spawn to its ``listening on`` line.  The contract (DESIGN section 17):

* importing any package of ``repro`` loads no scipy module at all, and
  no module of ``repro`` but package ``__init__`` modules: every package
  resolves its re-exported names on first use;
* neither does the tuning path (``generate_trace`` ->
  ``trace_idle_intervals`` -> ``SuccessiveHalvingSearch.search``) nor a
  trace replay (``replay_with_scrubber``) load scipy, and tuning loads
  neither the event kernel nor the block layer (the seeded streams of
  ``repro.sim.rng``, which trace synthesis draws from, excepted);
* a fleet campaign ends holding ``scipy.special`` (the Poisson interval
  of its merge) and scipy's private helpers, never ``stats``,
  ``signal``, ``optimize``, ``sparse``, ``interpolate``, ``integrate``
  or ``linalg``;
* a fleet campaign and ``repro serve`` load none of the simulator
  (:data:`SIMULATOR`) and none of what runs beside it
  (:data:`SIMULATOR_AIDS`);
* ``repro serve`` starts, answers ``/healthz`` and takes a ``POST
  /campaigns`` with neither numpy, scipy nor the fleet kernel loaded:
  its campaign slot, and nothing else, imports them when it claims the
  job (:data:`LOADERS`);
* ``repro submit`` builds, digests and posts a spec with none of them
  and none of the fleet kernel (:data:`FLEET_KERNEL`) loaded at all.

Exit status 1 when a row holds a module it may not, or a thread other
than its :data:`LOADERS` entry imported a :data:`WATCHED` module.  The
seconds and megabytes are printed for the reader and never judged here
(this box runs the same work 0.8-1.5x from minute to minute;
``bench/run.py``'s ``setup_s`` and ``peak_rss_mb`` are the judged
numbers).
``tests/test_import_contract.py`` calls :func:`measure`,
:func:`forbidden`, :func:`strays` and :func:`misloaded` for the same
rows.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    "repro.sim",
    "repro.disk",
    "repro.sched",
    "repro.workloads",
    "repro.stats",
    "repro.core",
    "repro.core.policies",
    "repro.faults",
    "repro.raid",
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

_SERVE = """
import tempfile
from repro.fleet import CampaignSpec, FleetSpec, ScrubPolicySpec, spec_to_dict
from repro.service import CampaignService, ServiceClient
spec = spec_to_dict(CampaignSpec(
    fleet=FleetSpec(groups=24, disks_per_group=4),
    policies=(ScrubPolicySpec(name="weekly", latent_window_hours=84.0),),
    seed=5, shards=2,
))
with tempfile.TemporaryDirectory() as data_dir:
    with CampaignService(data_dir, port=0) as service:
        api = ServiceClient(service.url)
        assert api.health()[0] == 200
        status, reply = api.submit(spec)
        assert status == 201, reply
        assert api.wait(reply["job"]["id"])["state"] == "done"
"""

_SUBMIT = """
import socket
from repro.cli import main
with socket.socket() as closed:  # bound, never listening: connect is refused
    closed.bind(("127.0.0.1", 0))
    url = "http://127.0.0.1:%d" % closed.getsockname()[1]
    assert main(["submit", "--groups", "24", "--url", url]) == 1
"""

#: name -> (source run in the fresh interpreter, public scipy
#: subpackages it may end up holding).
SCENARIOS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "tune": (_TUNE, frozenset()),
    "replay": (_REPLAY, frozenset()),
    "campaign": (_CAMPAIGN, frozenset({"special"})),
    "serve": (_SERVE, frozenset({"special"})),
    "submit": (_SUBMIT, frozenset()),
}

#: The simulator: event kernel, block layer, drive model, scrubbing
#: framework and the experiment harnesses -- a module, or a package and
#: everything under it.
SIMULATOR = (
    "repro.sim", "repro.sched", "repro.disk.drive", "repro.core.scrubber",
    "repro.analysis",
)

#: What runs beside the simulator and not in a campaign or a service:
#: the per-request invariant checker, the telemetry sink it implements
#: and the on-disk trace store.
SIMULATOR_AIDS = (
    "repro.verify.invariants", "repro.obs.sink", "repro.traces.store",
)

#: The fleet kernel: what a campaign runs and a submission does not.
FLEET_KERNEL = (
    "repro.fleet.campaign", "repro.fleet.montecarlo", "repro.fleet.journal",
    "repro.raid.reliability", "repro.core.mlet", "repro.parallel.supervise",
)

#: Row -> (modules of ``repro`` it may not load, given as for
#: :data:`SIMULATOR`; the modules among them it may load nonetheless).
#: A package row may load none but package ``__init__`` modules.
OFF_LIMITS: Dict[str, Tuple[Tuple[str, ...], FrozenSet[str]]] = {
    "tune": (("repro.sim", "repro.sched"), frozenset({"repro.sim.rng"})),
    "campaign": (SIMULATOR + SIMULATOR_AIDS, frozenset()),
    "serve": (SIMULATOR + SIMULATOR_AIDS, frozenset()),
    "submit": (SIMULATOR + SIMULATOR_AIDS + FLEET_KERNEL, frozenset()),
    **{f"import {name}": (("repro",), frozenset()) for name in PACKAGES},
}

#: Modules whose first import :func:`measure` attributes to a thread.
WATCHED = ("numpy", "scipy", "repro.fleet.campaign")

#: Row -> the name prefix of the threads that may import a module of
#: :data:`WATCHED` first (the service's campaign slots), or ``None``
#: when the row may not load one at all.
LOADERS: Dict[str, Optional[str]] = {
    "serve": "repro-campaign",
    "submit": None,
}

_PROLOGUE = """
import json, resource, sys, time
_start = time.perf_counter()
_loaded_by = {}

class _Watch:
    # A finder is asked only for a module not yet in sys.modules, so
    # the first thread to ask for a watched name is the one importing it.
    def find_spec(self, name, path=None, target=None):
        if name in %r:
            import threading
            _loaded_by.setdefault(name, threading.current_thread().name)
        return None

sys.meta_path.insert(0, _Watch())
""" % (WATCHED,)

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
    "repro": sorted(
        name for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and not hasattr(module, "__path__")
    ),
    "loaded_by": _loaded_by,
}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    return env


def measure(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; what it cost and what it holds.

    ``scipy`` lists the loaded scipy modules cut to two levels
    (``scipy``, ``scipy.special``, ``scipy._lib``, ...); ``repro`` the
    loaded modules of ``repro`` that are not packages; ``loaded_by``
    maps each module of :data:`WATCHED` the body imported to the name
    of the thread that imported it.
    """
    done = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + body + _EPILOGUE],
        env=_env(), capture_output=True, text=True,
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


def strays(
    loaded: Sequence[str],
    banned: Tuple[str, ...],
    spared: FrozenSet[str] = frozenset(),
) -> List[str]:
    """The modules of ``loaded`` (``repro`` of :func:`measure`) under a
    name in ``banned`` -- that module, or anything in that package --
    and not in ``spared``."""
    return [
        name for name in loaded
        if name not in spared
        and any(name == b or name.startswith(b + ".") for b in banned)
    ]


def misloaded(loaded_by: Dict[str, str], loader: Optional[str]) -> List[str]:
    """The modules of ``loaded_by`` (see :func:`measure`) imported by a
    thread whose name does not start with ``loader``; with ``loader``
    ``None``, all of them."""
    return sorted(
        f"{name} (by {thread})" for name, thread in loaded_by.items()
        if loader is None or not thread.startswith(loader)
    )


def serve_ready_seconds(spawns: int = 3) -> float:
    """Median wall seconds from spawning ``repro serve`` on a fresh data
    directory to its ``listening on`` line, over ``spawns`` processes."""
    seconds = []
    for _ in range(spawns):
        with tempfile.TemporaryDirectory() as data_dir:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--data-dir", data_dir, "--port", "0"],
                env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                for line in proc.stdout:
                    if "listening on " in line:
                        seconds.append(time.perf_counter() - start)
                        break
                else:
                    raise RuntimeError(f"repro serve exited {proc.wait()}")
            finally:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(15.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
    return statistics.median(seconds)


def main() -> int:
    rows = [(f"import {name}", f"import {name}", frozenset()) for name in PACKAGES]
    rows += [(name, body, allowed) for name, (body, allowed) in SCENARIOS.items()]
    print(f"{'row':<24} {'seconds':>8} {'modules':>8} {'repro':>6} "
          f"{'rss MB':>8}  scipy")
    failed = False
    for label, body, allowed in rows:
        report = measure(body)
        bad = forbidden(report["scipy"], allowed)
        bad += strays(report["repro"], *OFF_LIMITS.get(label, ((), frozenset())))
        if label in LOADERS:
            bad += misloaded(report["loaded_by"], LOADERS[label])
        failed = failed or bool(bad)
        held = ", ".join(report["scipy"]) or "-"
        print(
            f"{label:<24} {report['seconds']:>8.3f} {report['modules']:>8d} "
            f"{len(report['repro']):>6d} {report['rss_mb']:>8.1f}  {held}"
            + (f"   FORBIDDEN: {', '.join(bad)}" if bad else "")
        )
    print(f"{'serve-ready':<24} {serve_ready_seconds():>8.3f} {'-':>8} "
          f"{'-':>6} {'-':>8}  -")
    print("import budget [FAIL]" if failed else "import budget [OK]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
