"""Service metrics: thread-safe counters, latency histograms, cache rates.

The storage layer's :class:`~repro.storage.stats.StorageStats` counts
*logical* costs (page reads, comparisons) and stays plain — it is on the
hottest paths and its counters are tolerated as approximate when several
threads share a store.  This module is the *operational* layer: request
counts, latencies, and cache hit/miss rates, protected by a lock so
concurrent updates are never lost (the stress tests assert exact totals).

Metric names are dotted strings; the conventional namespace is:

=============================  ==============================================
``engine.queries``             queries executed (one per ``Engine.execute``)
``engine.query_seconds``       histogram — end-to-end query latency
``engine.parses``              query texts actually parsed (plan-cache misses;
                               every engine plans through a plan cache)
``engine.views_built``         virtual views actually resolved (Algorithm 1
                               runs; view-cache misses)
``service.queries``            queries admitted through a ``QueryService``
``service.batches``            batch calls
``service.checkout_seconds``   histogram — time waiting for a pooled engine
``service.updates_applied``    update operations durably applied & published
``service.updates_aborted``    update operations rejected (store unchanged)
``service.wal_fsync_seconds``  histogram — WAL append+fsync latency per op
``service.recovery_seconds``   histogram — crash-recovery time per open
``service.recovery_replayed``  WAL records replayed by recovery
``cache.plan.hits/misses``     plan-cache outcomes
``cache.view.hits/misses``     view-cache outcomes
``cache.plan.evictions``       entries dropped at capacity (same for view)
``cache.view.update_evictions`` views evicted by an update's touched types
``buffer.hits/misses``         buffer-pool outcomes (per page request)
``navigator.indexed.steps``    axis steps over a store's own identity view
``navigator.virtual.steps``    axis steps over a ``virtualDoc()`` view
=============================  ==============================================

Counters can additionally carry **labels** (``incr(name, labels={...})``);
labeled increments live beside the plain name, never replacing it, so the
names above keep their historical meaning.  The engine labels
``engine.queries`` with ``strategy`` — ``virtual`` for queries navigating
a ``virtualDoc()`` view through the vPBN machinery, ``indexed`` /
``tree`` for stored-document navigation (the paper's query-the-virtual
vs. stored baselines; the rewrite-the-data baselines, *materialized* and
*renumbered*, are offline strategies measured by E10).  ``GET /metrics``
exposes everything as Prometheus text under content negotiation
(:mod:`repro.obs.prometheus`).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Optional


def _default_bounds() -> list[float]:
    """Geometric latency buckets from 1µs to ~17s (factor 4)."""
    bounds = []
    edge = 1e-6
    while edge < 20.0:
        bounds.append(edge)
        edge *= 4.0
    return bounds


def count_bounds(ceiling: float = 2e7) -> list[float]:
    """Geometric buckets for count-valued histograms (budget node
    visits, rows) — factor 4 from 1 up to ``ceiling``."""
    bounds = []
    edge = 1.0
    while edge < ceiling:
        bounds.append(edge)
        edge *= 4.0
    return bounds


class LatencyHistogram:
    """A fixed-bucket histogram of observations in seconds.

    Buckets are geometric (factor 4 from 1µs), which keeps the memory
    footprint constant while resolving both sub-millisecond axis steps
    and multi-second batch runs.  Quantiles are estimated by linear
    interpolation inside the containing bucket — the standard
    fixed-bucket estimator, good to a factor-of-4 worst case.

    Not locked by itself: :class:`ServiceMetrics` serializes access.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max", "exemplar")

    def __init__(self, bounds: Optional[list[float]] = None) -> None:
        self.bounds = bounds if bounds is not None else _default_bounds()
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        #: Last sampled-request observation: ``(trace_id_hex, value)`` or
        #: ``None``.  Lets the exposition carry an exemplar trace id per
        #: histogram so a latency outlier links back to its stitched trace.
        self.exemplar: Optional[tuple[str, float]] = None

    def observe(self, seconds: float) -> None:
        self.counts[bisect_right(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) in seconds.

        The interpolated estimate is clamped to the observed
        ``[min, max]`` range: the containing bucket's edges can lie
        outside what was actually seen (a single observation sits
        somewhere inside its bucket; the overflow bucket has no upper
        bound at all), and an estimate outside the observed range is
        always strictly worse than the nearest observed extreme.  For
        the overflow bucket the high edge is ``max(self.max, low)`` so
        interpolation never runs backwards.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bucket_count in enumerate(self.counts):
            if running + bucket_count >= target and bucket_count:
                low = self.bounds[index - 1] if index > 0 else 0.0
                if index < len(self.bounds):
                    high = self.bounds[index]
                else:
                    high = max(self.max, low)
                fraction = (target - running) / bucket_count
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.min), self.max)
            running += bucket_count
        return self.max

    def copy(self) -> "LatencyHistogram":
        """An independent snapshot (same bounds, copied counts)."""
        duplicate = LatencyHistogram(list(self.bounds))
        duplicate.counts = list(self.counts)
        duplicate.count = self.count
        duplicate.total = self.total
        duplicate.min = self.min
        duplicate.max = self.max
        duplicate.exemplar = self.exemplar
        return duplicate

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class ServiceMetrics:
    """Named counters and histograms behind one lock.

    Every mutation takes the lock, so totals are exact under
    concurrency; the service stress tests rely on
    ``hits + misses == lookups`` style invariants holding to the unit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        #: labeled counter variants: name -> {sorted (key, value) tuple -> n}.
        #: Kept apart from ``_counters`` so existing plain names (and every
        #: caller reading them) are untouched by the labeled dimension.
        self._labeled: dict[str, dict[tuple, int]] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- updates ---------------------------------------------------------------

    def incr(
        self, name: str, amount: int = 1, labels: Optional[dict] = None
    ) -> None:
        """Add to a counter; with ``labels`` the increment lands on the
        labeled variant (e.g. per query strategy) instead of the plain
        name — callers that want both totals and a breakdown issue both
        increments."""
        if labels is None:
            with self._lock:
                self._counters[name] = self._counters.get(name, 0) + amount
            return
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            series = self._labeled.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def observe(
        self,
        name: str,
        seconds: float,
        exemplar: Optional[str] = None,
        bounds: Optional[list[float]] = None,
    ) -> None:
        """Record into a histogram.  ``exemplar`` (a trace id) is kept as
        the histogram's latest exemplar; ``bounds`` picks the bucket
        layout the first time a series is created (count-valued series
        pass :func:`count_bounds`)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = LatencyHistogram(bounds)
                self._histograms[name] = histogram
            histogram.observe(seconds)
            if exemplar is not None:
                histogram.exemplar = (exemplar, seconds)

    def cache_hit(self, cache: str) -> None:
        self.incr(f"cache.{cache}.hits")

    def cache_miss(self, cache: str) -> None:
        self.incr(f"cache.{cache}.misses")

    def cache_eviction(self, cache: str) -> None:
        self.incr(f"cache.{cache}.evictions")

    # -- reads -----------------------------------------------------------------

    def counter(self, name: str, labels: Optional[dict] = None) -> int:
        if labels is None:
            with self._lock:
                return self._counters.get(name, 0)
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            return self._labeled.get(name, {}).get(key, 0)

    def counters_structured(self) -> list[tuple[str, dict, int]]:
        """Every counter as ``(dotted_name, labels, value)`` — plain
        counters carry empty labels.  The Prometheus renderer's input."""
        with self._lock:
            rows = [(name, {}, value) for name, value in self._counters.items()]
            for name, series in self._labeled.items():
                for key, value in series.items():
                    rows.append((name, dict(key), value))
        rows.sort(key=lambda row: (row[0], sorted(row[1].items())))
        return rows

    def histograms_copy(self) -> dict[str, LatencyHistogram]:
        """Independent copies of every histogram (bucket-level reads for
        the Prometheus renderer)."""
        with self._lock:
            return {
                name: histogram.copy()
                for name, histogram in self._histograms.items()
            }

    def hit_rate(self, cache: str) -> float:
        """Hits / lookups for a cache namespace, 0.0 when never used."""
        with self._lock:
            hits = self._counters.get(f"cache.{cache}.hits", 0)
            misses = self._counters.get(f"cache.{cache}.misses", 0)
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        """A defensive *snapshot copy* of a histogram — mutating the
        returned object (or observing into it) never touches the live
        series behind the lock."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.copy() if histogram is not None else None

    def snapshot(self) -> dict:
        """Counters and histogram summaries as one plain dict (for
        reports, the ``/metrics`` endpoint, and ``--metrics`` CLI output)."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            for name, series in sorted(self._labeled.items()):
                for key, value in sorted(series.items()):
                    inner = ",".join(f'{k}="{v}"' for k, v in key)
                    counters[f"{name}{{{inner}}}"] = value
            histograms = {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            }
        return {"counters": counters, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._labeled.clear()
            self._histograms.clear()
