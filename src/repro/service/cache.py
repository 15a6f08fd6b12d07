"""Thread-safe LRU caches for parsed plans and resolved virtual views.

Two preprocessing stages dominate repeated query latency: parsing the
query text, and — for ``virtualDoc()`` sources — resolving the vDataGuide
and running Algorithm 1 (the ``O(cN)`` level-array construction).  Both
outputs are immutable once built, so they are shared freely across the
engine pool:

* :class:`PlanCache` maps query text to its :class:`Plan`: the parsed
  expression tree, plus the sharded service's source analysis and
  per-shard specializations once it has made them.  A plan is
  document-independent (documents are bound at evaluation time through
  the engine's store registry), so one entry serves every document — the
  cache-correctness tests pin this down.
* :class:`ViewCache` maps ``(uri, spec)`` to the resolved
  :class:`~repro.core.virtual_document.VirtualDocument`.  The key carries
  the *loaded document's* identity, not just the uri text: reloading a
  uri invalidates its entries (:meth:`ViewCache.invalidate_uri`), and the
  same spec over different documents never aliases.

Concurrent misses for one key build once: the first thread in claims the
key, later threads wait on its event and then read the cached value (a
hit — they did not pay the build).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.obs.trace import span_add
from repro.service.metrics import ServiceMetrics

_MISSING = object()


class LRUCache:
    """A lock-protected LRU map with single-flight builds.

    :param capacity: maximum number of entries; least-recently-used
        entries are evicted beyond it.
    :param metrics: optional :class:`ServiceMetrics` receiving
        ``cache.<name>.hits`` / ``.misses`` / ``.evictions``.
    :param name: the metric namespace for this cache.
    """

    def __init__(
        self,
        capacity: int,
        metrics: Optional[ServiceMetrics] = None,
        name: str = "lru",
    ) -> None:
        if capacity < 1:
            raise ValueError("cache needs capacity >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self.name = name
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._building: dict = {}

    def get_or_build(self, key, build: Callable[[], object]):
        """The cached value for ``key``, building it with ``build()`` on a
        miss.  Concurrent misses on one key run ``build`` exactly once;
        the waiters record hits (they are served the built value)."""
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    if self.metrics is not None:
                        self.metrics.cache_hit(self.name)
                    span_add(f"cache.{self.name}.hits")
                    return value
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    break
            event.wait()
        try:
            value = build()
        except BaseException:
            with self._lock:
                del self._building[key]
            event.set()
            raise
        with self._lock:
            del self._building[key]
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.metrics is not None:
                self.metrics.cache_miss(self.name)
            span_add(f"cache.{self.name}.misses")
            self._evict_over_capacity()
        event.set()
        return value

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            if self.metrics is not None:
                self.metrics.cache_eviction(self.name)

    # -- plain map operations --------------------------------------------------

    def get(self, key, default=None):
        """Peek without building (still refreshes recency and counts)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                if self.metrics is not None:
                    self.metrics.cache_miss(self.name)
                span_add(f"cache.{self.name}.misses")
                return default
            self._entries.move_to_end(key)
            if self.metrics is not None:
                self.metrics.cache_hit(self.name)
            span_add(f"cache.{self.name}.hits")
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_over_capacity()

    def invalidate(self, key) -> bool:
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def invalidate_where(self, predicate: Callable[[object], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries


class Plan:
    """One query text's preprocessing: its parsed expression tree
    (:attr:`expr`), and two slots :class:`~repro.shard.ShardedService`
    fills on first use — the plan's source analysis
    (:func:`~repro.shard.plan.referenced_sources`) and, once it has
    scattered, the ``(placement, specializations)`` pair: the ``uri ->
    shard`` placement and the per-shard plans built for it.  Racing
    threads derive equal values, so a slot is filled without a lock."""

    __slots__ = ("expr", "analysis", "placed")

    def __init__(self, expr) -> None:
        self.expr = expr
        self.analysis = None
        self.placed = None


class PlanCache(LRUCache):
    """Query text -> :class:`Plan`.

    Parsed expressions are immutable (evaluation never rewrites the
    tree), so a cached plan is safe to evaluate from any engine against
    any document set simultaneously.
    """

    def __init__(
        self, capacity: int = 256, metrics: Optional[ServiceMetrics] = None
    ) -> None:
        super().__init__(capacity, metrics, name="plan")

    def get_or_parse(self, text: str) -> Plan:
        from repro.query.parser import parse_query

        def build():
            if self.metrics is not None:
                self.metrics.incr("engine.parses")
            return Plan(parse_query(text))

        return self.get_or_build(text, build)


class ViewCache(LRUCache):
    """``(uri, spec)`` -> resolved :class:`VirtualDocument`.

    The value embeds the level arrays Algorithm 1 produced, so a hit
    skips vDataGuide resolution *and* level-array construction.  Entries
    are pinned to the store that was loaded when they were built:
    :meth:`get_or_build_view` rejects (and rebuilds) entries whose
    document is no longer current under the uri.

    *Reloading* a uri drops every entry (:meth:`invalidate_uri`).  An
    *update* is finer: copy-on-write mutation publishes a new document
    version but leaves most types byte-identical, so
    :meth:`revalidate` evicts only the views whose vDataGuide touches a
    mutated type and *re-binds* the rest to the new version — their
    level arrays, and the immutable snapshot nodes they navigate, are
    still exact for every type they can reach.
    """

    def __init__(
        self, capacity: int = 64, metrics: Optional[ServiceMetrics] = None
    ) -> None:
        super().__init__(capacity, metrics, name="view")
        #: ``(uri, spec)`` -> the *current* document an entry built over
        #: an older version remains valid for (set by :meth:`revalidate`).
        self._bound: dict = {}

    def get_or_build_view(self, engine, uri: str, spec: str):
        document = engine.store(uri).document
        key = (uri, spec)

        def build():
            if self.metrics is not None:
                self.metrics.incr("engine.views_built")
            return engine.build_virtual(uri, spec)

        vdoc = self.get_or_build(key, build)
        if vdoc.document is document:
            return vdoc
        with self._lock:
            bound = self._bound.get(key)
        if bound is not document:
            # The uri was reloaded underneath a stale entry; replace it.
            self.invalidate(key)
            return self.get_or_build(key, build)
        return vdoc

    def invalidate_uri(self, uri: str) -> int:
        """Drop every view over ``uri`` (called on document reload)."""
        with self._lock:
            for key in [k for k in self._bound if k[0] == uri]:
                del self._bound[key]
        return self.invalidate_where(lambda key: key[0] == uri)

    def revalidate(self, uri: str, new_document, touched_paths) -> int:
        """Apply an update's fine-grained invalidation; returns the number
        of entries evicted.

        A cached view must go iff any original type its vDataGuide
        references is prefix-related (either direction) to any touched
        DataGuide path: a touched descendant changes what the view can
        reach below a referenced type, a touched ancestor changes which
        instances exist above it.  Every other view over ``uri`` is
        re-bound to ``new_document`` — it keeps serving the snapshot it
        was built over, which is value-identical for all its types.
        """
        touched = [tuple(path) for path in touched_paths]

        def is_stale(vdoc) -> bool:
            for vtype in vdoc.vguide.iter_vtypes():
                referenced = vtype.original.path
                for path in touched:
                    n = min(len(referenced), len(path))
                    if referenced[:n] == path[:n]:
                        return True
            return False

        evicted = 0
        with self._lock:
            for key in [k for k in self._entries if k[0] == uri]:
                if is_stale(self._entries[key]):
                    del self._entries[key]
                    self._bound.pop(key, None)
                    evicted += 1
                else:
                    self._bound[key] = new_document
        if self.metrics is not None and evicted:
            self.metrics.incr("cache.view.update_evictions", evicted)
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._bound.clear()
        super().clear()
