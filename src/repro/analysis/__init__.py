"""Experiment-level analysis: the code behind every figure and table.

* :mod:`repro.analysis.service_model` — measured scrub-request service
  times per size (the bridge from the mechanical drive model to the
  trace-driven policy simulations);
* :mod:`repro.analysis.throughput` — standalone scrubber throughput
  (Figs. 4, 5a, 5b);
* :mod:`repro.analysis.stack` — the scenario layer: the one assembler
  (:class:`ScrubStack`) of engine + drive + scheduler + foreground +
  scrubber that the three full-stack experiments below, the
  ``repro.verify`` oracle and ``repro trace`` all run;
* :mod:`repro.analysis.impact` — scrubber vs foreground workload
  experiments on the full stack (Figs. 3, 6a, 6b);
* :mod:`repro.analysis.replay_cdf` — trace replay with scrubbers,
  response-time CDFs (Fig. 7);
* :mod:`repro.analysis.collision` — policy evaluation on idle interval
  samples: utilisation vs collision rate (Fig. 14);
* :mod:`repro.analysis.detection` — latent-sector-error detection and
  remediation under injected fault plans: time-to-detection, scrub vs
  foreground attribution, errors missed to the ATA cache bug;
* :mod:`repro.analysis.slowdown` — Waiting-policy slowdown/throughput
  simulation with fixed and adaptive request sizes (Fig. 15,
  Table III).
"""

from repro import _lazy

_EXPORTS = {
    "DetectionMetrics": ".detection",
    "DetectionResult": ".detection",
    "ImpactResult": ".impact",
    "PolicyPoint": ".collision",
    "ReplayResult": ".replay_cdf",
    "ScrubServiceModel": ".service_model",
    "ScrubStack": ".stack",
    "ScrubberSetup": ".stack",
    "SlowdownResult": ".slowdown",
    "compute_detection_metrics": ".detection",
    "detection_sweep_task": ".detection",
    "evaluate_policy": ".collision",
    "replay_with_scrubber": ".replay_cdf",
    "run_detection_experiment": ".detection",
    "run_impact_experiment": ".impact",
    "shrunk_spec": ".detection",
    "simulate_adaptive_waiting": ".slowdown",
    "simulate_fixed_waiting": ".slowdown",
    "standalone_scrub_throughput": ".throughput",
    "sweep_policy_cls": ".collision",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
