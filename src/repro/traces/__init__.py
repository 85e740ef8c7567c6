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

from repro.traces.catalog import (
    CATALOG,
    TraceSpec,
    generate_corpus,
    generate_trace,
)
from repro.traces.idle import idle_intervals, idle_intervals_streaming
from repro.traces.io import (
    TraceFormatError,
    iter_trace_chunks,
    read_csv_trace,
    write_csv_trace,
)
from repro.traces.record import Trace
from repro.traces.store import (
    StoredTrace,
    StoreIntegrityError,
    TraceCorpus,
    TraceStoreError,
    write_trace,
)
from repro.traces.synth import SyntheticTraceGenerator, TraceProfile

__all__ = [
    "CATALOG",
    "StoreIntegrityError",
    "StoredTrace",
    "SyntheticTraceGenerator",
    "Trace",
    "TraceCorpus",
    "TraceFormatError",
    "TraceProfile",
    "TraceSpec",
    "TraceStoreError",
    "generate_corpus",
    "generate_trace",
    "idle_intervals",
    "idle_intervals_streaming",
    "iter_trace_chunks",
    "read_csv_trace",
    "write_csv_trace",
]
