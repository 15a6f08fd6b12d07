"""The concurrent query service: a pool of engines over shared stores.

A :class:`QueryService` owns each loaded document exactly once — one
immutable :class:`~repro.storage.store.DocumentStore` (heap, buffer pool,
value/type indexes, DataGuide) in the one published
:class:`~repro.query.engine.StoreMap` every pooled engine adopts — and
shares one :class:`~repro.service.cache.PlanCache` and one
:class:`~repro.service.cache.ViewCache` across them.  A query therefore
pays parsing and Algorithm 1 once per distinct (text, view) regardless of
which engine serves it; everything per-query (evaluation context,
constructed-node registry) stays engine-local, so engines need no locks
of their own.

Thread-safety contract:

* ``execute`` is safe from any number of threads; callers block while
  all pooled engines are busy (``execute(..., wait=False)`` answers
  ``None`` instead).
* ``load`` / ``open`` / ``update`` are safe to call concurrently with
  queries.  Each publishes under the write lock by swapping the
  service's :attr:`~QueryService.store_map` for a derived one; nothing
  else changes.  An engine adopts the published map at checkout and
  drops it at checkin (an idle engine holds no version), so a query
  sees one consistent snapshot end to end: the map published when its
  engine was checked out, never a mid-flight mix.
* ``update`` serializes writers per service; each applied operation
  derives a new copy-on-write store version
  (:mod:`repro.updates.mutations`) and publishes it without waiting for
  readers.  Cached virtual views are revalidated against the
  operation's touched types, not blanket-evicted
  (:meth:`~repro.service.cache.ViewCache.revalidate`).
* :class:`~repro.service.metrics.ServiceMetrics` totals are exact (lock
  protected).  The shared :class:`~repro.storage.stats.StorageStats`
  block keeps the seed's unlocked hot-path counters and is approximate
  under concurrency; treat it as a profile, not an invariant.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.trace import Tracer, span
from repro.query.engine import NO_STORES, Engine, Result, _preview
from repro.service.cache import PlanCache, ViewCache
from repro.service.metrics import ServiceMetrics
from repro.storage.stats import StorageStats
from repro.storage.store import DocumentStore
from repro.xmlmodel.nodes import Document
from repro.xmlmodel.parser import parse_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.updates.durable import DurableStore
    from repro.updates.mutations import MutationResult
    from repro.updates.ops import UpdateOp


#: Heap page size and buffer-pool pages of every document a service
#: loads, opens or recovers.
PAGE_SIZE = 4096
BUFFER_CAPACITY = 256

#: LRU sizes of a service's own parsed-plan and virtual-view caches.
PLAN_CACHE_CAPACITY = 256
VIEW_CACHE_CAPACITY = 64


def recover(directory: str, tracer: Tracer, stats: StorageStats) -> "DurableStore":
    """Open (recovering if needed) a durable store directory under a
    forced ``recovery`` trace."""
    from repro.updates.durable import DurableStore

    with tracer.start("recovery", detail=directory, stats=stats, force=True):
        return DurableStore.open(
            directory, page_size=PAGE_SIZE, buffer_capacity=BUFFER_CAPACITY
        )


def service_snapshot(service, primaries: list["QueryService"]) -> dict:
    """The ``snapshot()`` of both service classes: ``service``'s metrics,
    logical-cost counters and cache occupancy, plus the durable state of
    ``primaries`` (the service itself, or a sharded service's shards)."""
    report = service.metrics.snapshot()
    report["storage"] = service.stats.snapshot()
    report["caches"] = {
        name: {
            "entries": len(cache),
            "capacity": cache.capacity,
            "hit_rate": service.metrics.hit_rate(name),
        }
        for name, cache in (("plan", service.plan_cache), ("view", service.view_cache))
    }
    durables: dict[str, dict] = {}
    for primary in primaries:
        with primary._write_lock:
            for uri, durable in primary._durables.items():
                durables[uri] = {"seq": durable.seq, "wal_bytes": durable.wal_size}
    if durables:
        report["durable"] = durables
    return report


class QueryService:
    """A thread-safe query facade over a pool of engines.

    :param pool_size: number of engines (max queries in flight).
    :param mode: default navigation mode, as for :class:`Engine`.
    :param metrics: share an external metrics block; fresh when omitted.
    :param stats: share an external :class:`StorageStats` block (the
        sharded service hands every shard the same one); fresh when
        omitted.
    :param tracer: share an external :class:`Tracer` (the CLI builds one
        from its sampling flags); an unsampled one when omitted.
    :param plan_cache / view_cache: share externally owned caches — the
        sharded service parses once through one :class:`PlanCache` and
        shares one :class:`ViewCache` across shards (uris are disjoint,
        so entries never collide); fresh per-service caches when omitted.

    Queries carry their own cost budget (``execute(..., budget=)``); the
    serving tier hands every read its ``--query-budget`` ceiling.
    """

    def __init__(
        self,
        pool_size: int = 4,
        mode: str = "indexed",
        metrics: Optional[ServiceMetrics] = None,
        stats: Optional[StorageStats] = None,
        tracer: Optional[Tracer] = None,
        plan_cache: Optional[PlanCache] = None,
        view_cache: Optional[ViewCache] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("service needs pool_size >= 1")
        self.pool_size = pool_size
        self.mode = mode
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.stats = stats if stats is not None else StorageStats()
        self.tracer = tracer if tracer is not None else Tracer()
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(PLAN_CACHE_CAPACITY, self.metrics)
        )
        self.view_cache = (
            view_cache
            if view_cache is not None
            else ViewCache(VIEW_CACHE_CAPACITY, self.metrics)
        )
        #: The published document versions: every checkout adopts it.
        self.store_map = NO_STORES
        self._durables: dict[str, "DurableStore"] = {}
        self._write_lock = threading.Lock()
        self._engines: list[Engine] = [
            Engine(
                mode=mode,
                page_size=PAGE_SIZE,
                buffer_capacity=BUFFER_CAPACITY,
                stats=self.stats,
                metrics=self.metrics,
                plan_cache=self.plan_cache,
                view_cache=self.view_cache,
                tracer=self.tracer,
            )
            for _ in range(pool_size)
        ]
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for engine in self._engines:
            self._idle.put(engine)

    # -- documents ---------------------------------------------------------------

    def load(self, uri: str, source: Union[str, Document]) -> DocumentStore:
        """Parse (if text), number, and store a document once, and publish
        it under ``uri``."""
        if isinstance(source, str):
            document = parse_document(source, uri)
        else:
            document = source
            document.uri = uri
        store = DocumentStore(
            document,
            page_size=PAGE_SIZE,
            buffer_capacity=BUFFER_CAPACITY,
            stats=self.stats,
            metrics=self.metrics,
        )
        return self.adopt_store(uri, store)

    def open(self, path: str, uri: Optional[str] = None) -> DocumentStore:
        """Load a persisted store image (under its saved uri, or ``uri``)
        and publish it, as :meth:`Engine.open` does."""
        from repro.storage.persist import load_store

        store = load_store(path, page_size=PAGE_SIZE, buffer_capacity=BUFFER_CAPACITY)
        return self.adopt_store(store.rehome(self.stats, self.metrics, uri), store)

    def open_durable(self, directory: str, uri: Optional[str] = None) -> "DurableStore":
        """Open (recovering if needed) a durable store directory and publish
        its current version; subsequent :meth:`update` calls for
        its uri go through the WAL."""
        return self.adopt_durable(recover(directory, self.tracer, self.stats), uri=uri)

    def adopt_durable(self, durable: "DurableStore", uri: Optional[str] = None) -> "DurableStore":
        """Publish an already-opened :class:`DurableStore` (the sharded
        service opens first, then routes to the owning shard)."""
        key = durable.store.rehome(self.stats, self.metrics, uri)
        self.metrics.observe("service.recovery_seconds", durable.recovery.duration_s)
        if durable.recovery.replayed:
            self.metrics.incr("service.recovery_replayed", durable.recovery.replayed)
        with self._write_lock:
            self._publish(key, durable.store)
            self._durables[key] = durable
        self.metrics.incr("service.documents_loaded")
        return durable

    def adopt_store(self, uri: str, store: DocumentStore) -> DocumentStore:
        """Publish an externally built (immutable) store under ``uri``.

        The replica tier (:mod:`repro.serve.replica`) seeds each replica
        with the primary's current store object — safe to share because
        stores are never mutated in place; updates derive copy-on-write
        versions — and then applies the shipped WAL tail through the
        replica's own :meth:`update` path.  A refused store
        (:class:`~repro.errors.LineageError`) changes nothing."""
        with self._write_lock:
            self._publish(uri, store)
        self.metrics.incr("service.documents_loaded")
        return store

    def _publish(self, uri: str, store: DocumentStore) -> None:
        """Make ``store`` the version of ``uri`` every later checkout
        sees: one swap of :attr:`store_map`.  Caller holds the write lock."""
        self.store_map = self.store_map.attached(uri, store, self.view_cache)

    # -- updates -----------------------------------------------------------------

    def update(self, uri: str, op: "UpdateOp") -> "MutationResult":
        """Durably apply one update operation to the document under
        ``uri`` and publish the derived store version.

        Writers are serialized (one derivation at a time per service);
        readers are never blocked — queries in flight finish on the
        version their engine held at checkout, later checkouts see the
        new one.  With the uri opened via :meth:`open_durable` the
        operation is WAL-logged (fsync before publish); a uri loaded
        from text or an image is updated in memory only.
        """
        from repro.errors import ReproError
        from repro.updates.mutations import apply_op

        handle = self.tracer.start("update", detail=op.describe(), stats=self.stats)
        with handle, self._write_lock:
            durable = self._durables.get(uri)
            try:
                if durable is not None:
                    result = durable.apply(op)
                    self.metrics.observe(
                        "service.wal_fsync_seconds", durable.last_fsync_s
                    )
                else:
                    result = apply_op(self.store(uri), op)
            except ReproError:
                self.metrics.incr("service.updates_aborted")
                raise
            with span("update.publish"):
                self.view_cache.revalidate(
                    uri, result.store.document, result.touched_paths
                )
                self._publish(uri, result.store)
        self.metrics.incr("service.updates_applied")
        return result

    def checkpoint(self, uri: str) -> int:
        """Fold the WAL of a durable uri into its image; returns the new
        image size in bytes."""
        from repro.errors import StorageError

        with self._write_lock:
            durable = self._durables.get(uri)
            if durable is None:
                raise StorageError(f"{uri!r} is not backed by a durable store")
            with self.tracer.start("checkpoint", detail=uri, stats=self.stats, force=True):
                return durable.checkpoint()

    def store(self, uri: str) -> DocumentStore:
        store = self.store_map.stores.get(uri)
        if store is None:
            from repro.errors import QueryEvaluationError

            raise QueryEvaluationError(f"no document loaded under {uri!r}")
        return store

    def uris(self) -> list[str]:
        return list(self.store_map.stores)

    def warm(self, uri: str, spec: str):
        """Resolve a virtual view so the first query finds it hot; returns
        the :class:`~repro.core.virtual_document.VirtualDocument` queries
        navigate."""
        with self._engine() as engine:
            return engine.virtual(uri, spec)

    # -- execution ---------------------------------------------------------------

    def _checkout(self, wait: bool = True) -> Optional[Engine]:
        """The next idle engine, holding the published map.  With
        ``wait=False``, ``None`` instead of blocking when no engine is
        idle."""
        started = time.perf_counter()
        with span("checkout") as checkout_span:
            if wait:
                engine = self._idle.get()
            else:
                try:
                    engine = self._idle.get_nowait()
                except queue.Empty:
                    checkout_span.set("busy", True)
                    return None
            engine.adopt(self.store_map)
        self.metrics.observe(
            "service.checkout_seconds", time.perf_counter() - started
        )
        return engine

    def _checkin(self, engine: Engine) -> None:
        # An idle engine holds no version: an update's replaced store is
        # freed by the update, not by the next checkout.
        engine.store_map = NO_STORES
        self._idle.put(engine)

    @contextmanager
    def _engine(self):
        """Check an engine out of the pool for the duration of a ``with``
        block.  The engine returns to the pool on *every* exit path — a
        query that raises must not leak its engine, or the pool drains
        until ``execute`` blocks forever."""
        engine = self._checkout()
        try:
            yield engine
        finally:
            self._checkin(engine)

    def execute(
        self,
        query,
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        budget=None,
        wait: bool = True,
        detail: Optional[str] = None,
    ) -> Optional[Result]:
        """Evaluate ``query`` — text, or a parsed plan as
        :meth:`Engine.execute` takes — on the next idle engine (blocking
        while the whole pool is busy).  Plan and view caches are
        consulted inside the engine; see the metric names in
        :mod:`repro.service.metrics`.

        ``budget`` caps this query's metered work
        (:class:`~repro.query.budget.CostBudget`).  ``wait=False``
        answers ``None`` instead of blocking when no engine can be
        checked out at once — the serving tier's inline reads
        (:mod:`repro.serve.app`) must never wait on the event loop.

        When the request is sampled (:attr:`tracer`), the trace opens
        here at admission — pool checkout, parsing, view resolution, and
        every axis step below land in one span tree, labelled ``detail``
        (the query text's preview by default; the scatter names the
        shard, whose specialized plan has no text)."""
        if detail is None:
            detail = _preview(query) if isinstance(query, str) else ""
        handle = self.tracer.start("query", detail=detail, stats=self.stats)
        with handle as root:
            engine = self._checkout(wait)
            if engine is None:
                return None
            self.metrics.incr("service.queries")
            try:
                result = engine.execute(
                    query, mode=mode, variables=variables, budget=budget
                )
            finally:
                self._checkin(engine)
            root.set("items", len(result))
            return result

    def explain_plan(self, expr, mode: Optional[str] = None, detail: str = ""):
        """Run an already-parsed plan under a forced trace on a pooled
        engine; returns ``(result, trace)`` (the sharded EXPLAIN ANALYZE
        path, one call per involved shard)."""
        with self._engine() as engine:
            return engine.explain_analyze(expr, mode=mode, detail=detail)

    def explain_text(self, query: str) -> str:
        """The static planner rendering of ``query`` (no execution)."""
        with self._engine() as engine:
            return engine.explain(query)

    def explain(self, query: str, mode: Optional[str] = None) -> dict:
        """EXPLAIN ANALYZE: run ``query`` under a forced trace and return
        the planner's view next to the measured profile.

        Keys: ``plan`` (the static explain text), ``profile`` (the
        aggregated span tree, JSON-shaped), ``rendered`` (the
        human-readable profile), ``operators`` (the axis-step row
        labels, plan order), and ``summary`` (item count, wall time,
        trace id)."""
        from repro.obs.profile import build_profile, operators, render_profile

        self.metrics.incr("service.explains")
        with self._engine() as engine:
            plan = engine.explain(query)
            result, trace = engine.explain_analyze(query, mode=mode)
        profile = build_profile(trace)
        return {
            "plan": plan,
            "profile": profile.to_dict(),
            "rendered": render_profile(profile),
            "operators": [node.label for node in operators(profile)],
            "summary": {
                "items": len(result),
                "elapsed_ms": round(result.elapsed_seconds * 1e3, 4),
                "trace_id": trace.hex_id,
            },
        }

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Operational metrics plus the shared logical-cost counters."""
        return service_snapshot(self, [self])
