"""Observability for the whole stack: one simulation from the inside,
one fleet campaign from the outside.

Inside a simulation, instrumented layers call the blktrace-style hooks
of a :class:`~repro.obs.sink.TelemetrySink` (:mod:`~repro.obs.sink`);
the :class:`~repro.obs.sink.Recorder` keeps request lifecycles, scrub
and fault instants and a :class:`~repro.obs.metrics.MetricsRegistry`
of counters, gauges and log-bucket histograms
(:mod:`~repro.obs.metrics`).  Around a campaign, per-worker progress
probes (:mod:`~repro.obs.worker`) and the monitor appending
``events.jsonl`` (:mod:`~repro.obs.monitor`) watch the shards; one fold
of that log (:mod:`~repro.obs.report`) gives the status, the summary
and the deterministic span tree (:mod:`~repro.obs.spans`) to every
reader.  Both span sources export through one Chrome-trace encoder
(:mod:`~repro.obs.trace`); snapshots render as Prometheus textfiles
(:mod:`~repro.obs.prometheus`) or a self-contained HTML run report
(:mod:`~repro.obs.report`).  Every whole file the stack writes, these
outputs and its durable state alike (cache entries, the journal
header, job records, trace-store headers and catalogs), lands through
:func:`~repro.obs.export.atomic_write`.

Everything here is *passive*: results are bit-identical with
observability on or off.  This package re-exports nothing: import
each name from the module that defines it, e.g.
``from repro.obs.sink import Recorder``.
"""
