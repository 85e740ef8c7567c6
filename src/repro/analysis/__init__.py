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

from repro.analysis.collision import (
    PolicyPoint,
    evaluate_policy,
    sweep_policy_cls,
)
from repro.analysis.detection import (
    DetectionMetrics,
    DetectionResult,
    compute_detection_metrics,
    detection_sweep_task,
    run_detection_experiment,
    shrunk_spec,
)
from repro.analysis.impact import ImpactResult, run_impact_experiment
from repro.analysis.replay_cdf import (
    ReplayResult,
    replay_with_scrubber,
)
from repro.analysis.service_model import ScrubServiceModel
from repro.analysis.slowdown import (
    SlowdownResult,
    simulate_adaptive_waiting,
    simulate_fixed_waiting,
)
from repro.analysis.stack import ScrubberSetup, ScrubStack
from repro.analysis.throughput import standalone_scrub_throughput

__all__ = [
    "DetectionMetrics",
    "DetectionResult",
    "ImpactResult",
    "PolicyPoint",
    "ReplayResult",
    "ScrubServiceModel",
    "ScrubStack",
    "ScrubberSetup",
    "SlowdownResult",
    "compute_detection_metrics",
    "detection_sweep_task",
    "evaluate_policy",
    "replay_with_scrubber",
    "run_detection_experiment",
    "run_impact_experiment",
    "shrunk_spec",
    "simulate_adaptive_waiting",
    "simulate_fixed_waiting",
    "standalone_scrub_throughput",
    "sweep_policy_cls",
]
