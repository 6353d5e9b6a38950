"""Trace collection and training-data construction (paper §3, §5.1).

Pipeline: run the program over an input space (``tracegen``), expand
loop-head states to candidate monomial/external terms (``termgen``),
filter unstable terms (``filters``), normalize rows (``normalize``),
and densify with fractional sampling when needed (``fractional``).

Stage boundary: everything in this package is *data production* — pure
functions from (program, inputs) to traces, states, and matrices, with
no knowledge of training or checking.  The ``cache`` module provides
the :class:`~repro.sampling.cache.TraceCache` memo that each solve of
the inference runtime owns, so its retries share one state dataset per
fractional interval and one term-matrix evaluation per (interval,
loop).

The ``source`` module abstracts *where states come from*: the
:class:`~repro.sampling.source.ObservationSource` protocol with an
interpreter-backed implementation (today's path) and a recorded-trace
implementation (trace-first solving, no program required).
"""

from repro.sampling.source import (
    InterpreterSource,
    LoopTrace,
    Observation,
    ObservationSource,
    RecordedTraceSource,
    traces_from_csv,
    traces_from_payload,
    traces_to_payload,
)
from repro.sampling.tracegen import collect_traces, loop_dataset, enumerate_inputs
from repro.sampling.termgen import (
    TermBasis,
    build_term_basis,
    extend_state,
    evaluate_terms,
)
from repro.sampling.filters import (
    growth_rate_filter,
    dedup_columns,
    duplicate_column_map,
)
from repro.sampling.normalize import normalize_rows
from repro.sampling.fractional import relax_initializers, fractional_inputs
from repro.sampling.cache import CacheStats, TraceCache

__all__ = [
    "Observation",
    "LoopTrace",
    "ObservationSource",
    "InterpreterSource",
    "RecordedTraceSource",
    "traces_to_payload",
    "traces_from_payload",
    "traces_from_csv",
    "collect_traces",
    "loop_dataset",
    "enumerate_inputs",
    "TermBasis",
    "build_term_basis",
    "extend_state",
    "evaluate_terms",
    "growth_rate_filter",
    "dedup_columns",
    "duplicate_column_map",
    "normalize_rows",
    "relax_initializers",
    "fractional_inputs",
    "CacheStats",
    "TraceCache",
]
