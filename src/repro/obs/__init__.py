"""Observability for the whole stack: one simulation from the inside,
one fleet campaign from the outside.

Inside a simulation, instrumented layers call the blktrace-style hooks
of a :class:`~repro.obs.sink.TelemetrySink` (:mod:`~repro.obs.sink`);
the :class:`~repro.obs.sink.Recorder` keeps request lifecycles, scrub
and fault instants and a :class:`~repro.obs.metrics.MetricsRegistry`
of counters, gauges and log-bucket histograms
(:mod:`~repro.obs.metrics`).  Around a campaign, per-worker progress
probes (:mod:`~repro.obs.worker`), deterministic hierarchical spans
(:mod:`~repro.obs.spans`) and the live aggregator appending
``events.jsonl`` (:mod:`~repro.obs.monitor`) watch the shards.  Both recorders export through one Chrome-trace encoder
(:mod:`~repro.obs.trace`); snapshots render as Prometheus textfiles
(:mod:`~repro.obs.prometheus`) or a self-contained HTML run report
(:mod:`~repro.obs.report`); every whole-file output goes through
:func:`~repro.obs.export.atomic_write`.

Everything here is *passive*: results are bit-identical with
observability on or off.  This package re-exports nothing: import
each name from the module that defines it, e.g.
``from repro.obs.sink import Recorder``.
"""
