"""Block I/O traces: the container, parsing, synthesis and idle analysis.

The paper analyses 77 disk traces from the SNIA IOTTA repository (HP
Cello 1999, MSR Cambridge 2008, MS TPC-C 2009 — Table I).  Those traces
are not redistributable, so this package provides:

* :class:`~repro.traces.record.Trace` — an efficient array-backed
  trace container;
* :mod:`repro.traces.io` — a parser/writer for SNIA-style CSV block
  traces, so users with access to the real traces can load them;
* :mod:`repro.traces.synth` — synthetic arrival/address generators
  reproducing the statistical structure the paper's scheduling results
  rest on (diurnal periodicity, burst autocorrelation, heavy-tailed
  idle times with decreasing hazard rates, near-memoryless TPC-C);
* :mod:`~repro.traces.catalog` — named trace specs mirroring Table I,
  with per-disk calibration targets from Table II;
* :mod:`repro.traces.idle` — idle-interval extraction.
"""

from repro import _lazy

_EXPORTS = {
    "CATALOG": ".catalog",
    "StoreIntegrityError": ".store",
    "StoredTrace": ".store",
    "SyntheticTraceGenerator": ".synth",
    "Trace": ".record",
    "TraceCorpus": ".store",
    "TraceFormatError": ".io",
    "TraceProfile": ".synth",
    "TraceSpec": ".catalog",
    "TraceStoreError": ".store",
    "generate_corpus": ".catalog",
    "generate_trace": ".catalog",
    "idle_intervals": ".idle",
    "idle_intervals_streaming": ".idle",
    "iter_trace_chunks": ".io",
    "read_csv_trace": ".io",
    "write_csv_trace": ".io",
    "write_trace": ".store",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
