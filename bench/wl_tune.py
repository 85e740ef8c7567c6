"""``tune_tab3``: the Table III tuning pipeline over the whole catalog.

For every catalog trace: generate it from the seed, extract its idle
intervals, and search the (request size, wait threshold) space for the
2 ms mean-slowdown goal with the successive-halving search, the final
rung going through a serial ``SweepRunner`` backed by a fresh
``ResultCache``.  Then the same searches again on the now-warm cache:
the elimination rungs re-run, the final rung is served from disk.

No event kernel and no fleet code runs here; the time is in
``traces``, ``analysis.slowdown``'s vectorised interval simulator,
``core.search`` and ``parallel.cache``.
"""

from __future__ import annotations

import time

from harness import Measurement, Workload
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import SIM_METER
from repro.core.search import SuccessiveHalvingSearch
from repro.disk.models import PRESETS
from repro.parallel import SweepRunner
from repro.parallel.cache import ResultCache
from repro.traces import generate_trace
from repro.traces.catalog import CATALOG, trace_idle_intervals

GOAL = 0.002


class TuneTab3(Workload):
    name = "tune_tab3"
    reference = "np"
    duration = 600.0
    quick_duration = 60.0
    min_reps = 2

    def setup(self) -> None:
        self.model = ScrubServiceModel.from_spec(PRESETS["ultrastar"]())
        self.span_s = self.quick_duration if self.quick else self.duration

    def _search(self, durations, trace, cache_dir):
        """One search through a fresh serial runner on ``cache_dir``."""
        runner = SweepRunner(workers=0, cache=ResultCache(cache_dir))
        search = SuccessiveHalvingSearch(
            durations, len(trace), trace.duration, self.model
        )
        before = SIM_METER.snapshot()
        start = time.perf_counter()
        outcome = search.search(GOAL, runner=runner)
        elapsed = time.perf_counter() - start
        after = SIM_METER.snapshot()
        return outcome, runner, elapsed, {key: after[key] - before[key] for key in before}

    def _cold(self, m: Measurement, tracer, name: str, cache_dir: str, acc: dict):
        """Trace -> chosen parameters for one catalog entry, cold cache.

        Adds this trace's seconds and counts to ``acc``; returns
        ``(durations, trace, best, outputs row)`` for the warm pass.
        """
        with tracer.span("traces.generate", trace=name):
            start = time.perf_counter()
            trace = generate_trace(name, duration=self.span_s, seed=self.seed)
            acc["generate_s"] += time.perf_counter() - start
        with tracer.span("traces.idle_extract", trace=name):
            start = time.perf_counter()
            _, durations = trace_idle_intervals(name, trace)
            acc["idle_s"] += time.perf_counter() - start
        with tracer.span("core.search.search", trace=name):
            outcome, runner, elapsed, meter = self._search(durations, trace, cache_dir)
        best = outcome.best
        m.check(
            best.achieved_slowdown <= GOAL,
            f"{name}: achieved {best.achieved_slowdown} > goal",
        )
        acc["search_s"] += elapsed
        acc["requests"] += len(trace)
        acc["idle_intervals"] += len(durations)
        acc["interval_evals"] += meter["interval_evals"]
        acc["sims"] += meter["sims"]
        acc["rungs"] += len(outcome.rungs)
        acc["executed"] += runner.executed
        target = CATALOG[name].paper_idle_mean
        if target:
            acc["rel_err"].append(abs(durations.mean() - target) / target)
        return durations, trace, best, {
            "requests": len(trace),
            "idle_intervals": len(durations),
            "interval_evals": meter["interval_evals"],
            "request_bytes": best.request_bytes,
            "threshold": best.threshold.hex(),
            "throughput": best.throughput.hex(),
            "achieved_slowdown": best.achieved_slowdown.hex(),
        }

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement()

        def rep(index: int) -> None:
            cache_dir = self.fresh_dir("cache")
            outputs = {}
            tuned = {}
            acc = dict.fromkeys(
                ("requests", "idle_intervals", "interval_evals", "sims", "rungs",
                 "executed", "warm_evals", "warm_hits"),
                0,
            )
            acc.update(dict.fromkeys(
                ("generate_s", "idle_s", "search_s", "warm_s", "cold", "cold_raw", "warm"),
                0.0,
            ))
            acc["rel_err"] = []
            with tracer.span("tune.rep", rep=index):
                with tracer.span("tune.cold"):
                    for name in CATALOG:
                        self.clock.mark()
                        try:
                            *tuned[name], outputs[name] = self._cold(
                                m, tracer, name, cache_dir, acc
                            )
                        except Exception as exc:  # an unattainable goal is a failed operation
                            m.check(False, f"{name}: {exc!r}")
                            tuned.pop(name, None)
                            continue
                        seconds, raw = self.clock.lap()
                        acc["cold"] += seconds
                        acc["cold_raw"] += raw
                with tracer.span("tune.warm"):
                    for name, (durations, trace, best) in tuned.items():
                        self.clock.mark()
                        outcome, runner, elapsed, meter = self._search(
                            durations, trace, cache_dir
                        )
                        acc["warm"] += self.clock.lap()[0]
                        acc["warm_s"] += elapsed
                        acc["warm_evals"] += meter["interval_evals"]
                        acc["warm_hits"] += runner.cache_hits
                        m.check(
                            runner.executed == 0 and outcome.best == best,
                            f"{name}: warm pass executed {runner.executed} "
                            "task(s) or chose different parameters",
                        )
            if acc["cold"] > 0 and acc["warm"] > 0:
                m.add("main_per_s", acc["interval_evals"] / acc["cold"])
                m.add("alt_per_s", acc["warm_evals"] / acc["warm"])
            m.add("cold_raw_s", acc["cold_raw"])
            m.add("search_evals_per_s", acc["interval_evals"] / max(acc["search_s"], 1e-9))
            for key in ("generate_s", "idle_s", "search_s", "warm_s"):
                m.add(key, acc[key])
            counts = {
                "traces.requests": acc["requests"],
                "traces.idle_intervals": acc["idle_intervals"],
                "analysis.slowdown.interval_evals": acc["interval_evals"],
                "analysis.slowdown.sims": acc["sims"],
                "core.search.rungs": acc["rungs"],
                "parallel.runner.executed": acc["executed"],
                "parallel.cache.hits": acc["warm_hits"],
            }
            if index == 0:
                m.outputs = outputs
                m.counts = counts
                errors = acc["rel_err"]
                self._rel_err = sum(errors) / len(errors) if errors else 0.0
            else:
                m.check(
                    outputs == m.outputs and counts == m.counts,
                    f"rep {index}: outputs or counts changed",
                )

        self.run_reps(rep, seconds)
        return m

    def layer_metrics(self, plain: Measurement, traced: Measurement) -> dict:
        values = dict(traced.counts)
        values.update(
            {
                "tune.wall_s": plain.median("cold_raw_s"),
                "tune.interval_evals_per_s": plain.median("search_evals_per_s"),
                "traces.generate_s": traced.median("generate_s"),
                "traces.idle_extract_s": traced.median("idle_s"),
                "traces.idle_mean_rel_err": self._rel_err,
                "core.search.search_s": traced.median("search_s"),
                "parallel.cache.warm_s": traced.median("warm_s"),
            }
        )
        return values
