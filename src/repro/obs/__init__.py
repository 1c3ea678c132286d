"""Query-lifecycle observability: spans, metrics, ``EXPLAIN ANALYZE``.

Zero-dependency tracing and metrics threaded through every engine.
Tracing is **off by default** — engines take ``trace=None`` and guard
every touch behind ``if trace is not None``, so the disabled path costs
nothing but those checks.  Metrics are always on but coarse: one
registry update per query, round, or slice.
"""

from .analyze import ExplainAnalyzeReport
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import COUNTER_KEYS, TRACE_FORMAT, Span, TraceContext

__all__ = [
    "COUNTER_KEYS",
    "Counter",
    "ExplainAnalyzeReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACE_FORMAT",
    "TraceContext",
]
