"""Observability: tracing, EXPLAIN ANALYZE profiles, Prometheus exposition.

Four zero-dependency modules the whole stack reports into:

* :mod:`repro.obs.trace` — context-propagated spans, a sampling
  :class:`~repro.obs.trace.Tracer` with a ring buffer of recent traces
  and a slow-query log, and the :class:`~repro.obs.trace.SpanContext`
  carrier that continues an upstream trace over HTTP;
* :mod:`repro.obs.profile` — aggregates one query's trace into a
  plan-shaped profile (``repro query --explain-analyze``,
  ``QueryService.explain``, ``POST /explain``);
* :mod:`repro.obs.chrome` — exports stitched traces as Chrome
  trace-event JSON (``repro traces --format=chrome``, Perfetto-loadable);
* :mod:`repro.obs.prometheus` — the ``text/plain; version=0.0.4``
  exposition of :class:`~repro.service.metrics.ServiceMetrics` served by
  ``GET /metrics`` under content negotiation.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and the metric ->
paper-cost mapping.
"""

from repro.obs.trace import (
    MAX_ATTRS,
    MAX_SPANS,
    NOOP,
    Span,
    SpanContext,
    Trace,
    Tracer,
    current_context,
    current_span,
    current_trace_id,
    fork,
    format_id,
    mint_id,
    span,
    span_add,
    wrap,
)
from repro.obs.chrome import chrome_trace_events, render_chrome
from repro.obs.profile import (
    ProfileNode,
    build_profile,
    navigation_split,
    operators,
    render_profile,
    render_trace,
    totals,
)
from repro.obs.prometheus import render_prometheus

__all__ = [
    "MAX_ATTRS",
    "MAX_SPANS",
    "NOOP",
    "Span",
    "SpanContext",
    "Trace",
    "Tracer",
    "current_context",
    "current_span",
    "current_trace_id",
    "fork",
    "format_id",
    "mint_id",
    "span",
    "span_add",
    "wrap",
    "ProfileNode",
    "build_profile",
    "navigation_split",
    "operators",
    "render_profile",
    "render_trace",
    "totals",
    "chrome_trace_events",
    "render_chrome",
    "render_prometheus",
]
