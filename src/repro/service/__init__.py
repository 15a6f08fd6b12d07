"""The concurrent query service: engine pooling, caching, metrics.

The seed :class:`~repro.query.engine.Engine` is single-threaded and pays
the full pipeline on every call — parse the query, and (for virtual
sources) resolve the vDataGuide and run Algorithm 1.  The service layer
amortizes that preprocessing across many queries, the trade-off the
static/dynamic processing literature argues for:

* :class:`QueryService` — a thread-safe facade over a pool of engines
  that share immutable :class:`~repro.storage.store.DocumentStore`\\ s;
* :class:`PlanCache` — an LRU of parsed queries keyed by query text;
* :class:`ViewCache` — an LRU of resolved virtual views (vDataGuide +
  Algorithm 1 level arrays) keyed by ``(document, spec)``;
* :class:`ServiceMetrics` — lock-protected counters and latency
  histograms threaded through the engine, the buffer pool, and both
  the indexed and virtual navigators.

See ``docs/SERVICE.md`` for the architecture and the metric names.
"""

from repro.service.cache import LRUCache, PlanCache, ViewCache
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.service import QueryService

__all__ = [
    "LRUCache",
    "LatencyHistogram",
    "PlanCache",
    "QueryService",
    "ServiceMetrics",
    "ViewCache",
]
