"""The concurrent query service: a pool of engines over shared stores.

A :class:`QueryService` owns each loaded document exactly once — one
immutable :class:`~repro.storage.store.DocumentStore` (heap, buffer pool,
value/type indexes, DataGuide) attached to every engine in the pool — and
shares one :class:`~repro.service.cache.PlanCache` and one
:class:`~repro.service.cache.ViewCache` across them.  A query therefore
pays parsing and Algorithm 1 once per distinct (text, view) regardless of
which engine serves it; everything per-query (evaluation context,
constructed-node registry) stays engine-local, so engines need no locks
of their own.

Thread-safety contract:

* ``execute`` / ``batch`` are safe from any number of threads; callers
  block while all pooled engines are busy (``execute(..., wait=False)``
  answers ``None`` instead).
* ``load`` / ``open_image`` / ``update`` take the topology lock and are
  safe to call concurrently with queries.  Topology changes reach an
  engine only while it is *idle* — a replacement store is attached
  immediately to engines waiting in the pool and queued as *pending*
  for busy ones, which drain the queue at their next checkout.  A query
  therefore sees one consistent snapshot end to end: the version its
  engine held when the query started, never a mid-flight mix.
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.trace import Tracer, span
from repro.query.engine import Engine, Result, _preview
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


class BatchResult:
    """The outcome of :meth:`QueryService.batch`, in submission order.

    :ivar outcomes: one entry per query — a :class:`Result` on success or
        the raised exception on failure.
    :ivar elapsed_seconds: wall-clock time of the whole batch.
    """

    def __init__(self, outcomes: list, elapsed_seconds: float) -> None:
        self.outcomes = outcomes
        self.elapsed_seconds = elapsed_seconds

    @property
    def results(self) -> list[Result]:
        return [item for item in self.outcomes if isinstance(item, Result)]

    @property
    def errors(self) -> list[Exception]:
        return [item for item in self.outcomes if isinstance(item, Exception)]

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def run_batch(service, queries: list[str], mode: Optional[str], workers: int) -> BatchResult:
    """``service.execute`` over ``queries`` on at most ``workers``
    threads, outcomes in submission order; failures are captured per
    query, not raised.  The one ``batch`` of both service classes."""
    service.metrics.incr("service.batches")
    started = time.perf_counter()
    worker_count = min(workers, max(len(queries), 1))

    def run(text: str):
        try:
            return service.execute(text, mode=mode)
        except Exception as error:  # per-query fault isolation
            return error

    if worker_count <= 1 or len(queries) <= 1:
        outcomes = [run(text) for text in queries]
    else:
        with ThreadPoolExecutor(max_workers=worker_count) as executor:
            outcomes = list(executor.map(run, queries))
    return BatchResult(outcomes, time.perf_counter() - started)


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
    :param plan_cache_capacity: LRU size of the shared parsed-plan cache.
    :param view_cache_capacity: LRU size of the shared virtual-view cache.
    :param page_size / buffer_capacity: storage knobs
        forwarded to document loading.
    :param metrics: share an external metrics block; fresh when omitted.
    :param stats: share an external :class:`StorageStats` block (the
        sharded service hands every shard the same one); fresh when
        omitted.
    :param plan_cache / view_cache: share externally owned caches — the
        sharded service parses once through one :class:`PlanCache` and
        shares one :class:`ViewCache` across shards (uris are disjoint,
        so entries never collide); fresh per-service caches when omitted.
    :param default_budget: optional
        :class:`~repro.query.budget.CostBudget` applied to every query
        that does not carry its own; queries whose metered work exceeds
        it abort with :class:`~repro.errors.QueryBudgetExceeded`.
    :param trace_sample: fraction of requests traced end to end
        (deterministic every-Nth; ``0`` disables tracing entirely).
    :param trace_buffer: ring-buffer capacity for recent / slow traces.
    :param slow_query_s: requests at least this slow land in the slow
        log with their full span tree; ``None`` disables the log.
    :param tracer: share an external :class:`Tracer`; built from the
        three knobs above when omitted.
    """

    def __init__(
        self,
        pool_size: int = 4,
        mode: str = "indexed",
        plan_cache_capacity: int = 256,
        view_cache_capacity: int = 64,
        page_size: int = 4096,
        buffer_capacity: int = 256,
        metrics: Optional[ServiceMetrics] = None,
        trace_sample: float = 0.0,
        trace_buffer: int = 64,
        slow_query_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        stats: Optional[StorageStats] = None,
        plan_cache: Optional[PlanCache] = None,
        view_cache: Optional[ViewCache] = None,
        default_budget=None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("service needs pool_size >= 1")
        self.pool_size = pool_size
        self.mode = mode
        self.default_budget = default_budget
        self.page_size = page_size
        self.buffer_capacity = buffer_capacity
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.tracer = tracer if tracer is not None else Tracer(
            capacity=trace_buffer,
            sample_rate=trace_sample,
            slow_threshold_s=slow_query_s,
        )
        self.stats = stats if stats is not None else StorageStats()
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(plan_cache_capacity, self.metrics)
        )
        self.view_cache = (
            view_cache
            if view_cache is not None
            else ViewCache(view_cache_capacity, self.metrics)
        )
        self._stores: dict[str, DocumentStore] = {}
        self._durables: dict[str, "DurableStore"] = {}
        self._topology_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._engines: list[Engine] = [
            self._make_engine() for _ in range(pool_size)
        ]
        #: per-engine stores attached while the engine was busy; drained
        #: (newest version per uri) at its next checkout.
        self._pending: dict[int, dict[str, DocumentStore]] = {
            id(engine): {} for engine in self._engines
        }
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for engine in self._engines:
            self._idle.put(engine)

    def _make_engine(self) -> Engine:
        return Engine(
            mode=self.mode,
            page_size=self.page_size,
            buffer_capacity=self.buffer_capacity,
            stats=self.stats,
            metrics=self.metrics,
            plan_cache=self.plan_cache,
            view_cache=self.view_cache,
            tracer=self.tracer,
        )

    # -- documents ---------------------------------------------------------------

    def load(self, uri: str, source: Union[str, Document]) -> DocumentStore:
        """Parse (if text), number, and store a document once; attach the
        store to every pooled engine under ``uri``."""
        if isinstance(source, str):
            document = parse_document(source, uri)
        else:
            document = source
            document.uri = uri
        store = DocumentStore(
            document,
            page_size=self.page_size,
            buffer_capacity=self.buffer_capacity,
            stats=self.stats,
            metrics=self.metrics,
        )
        self._attach(uri, store)
        return store

    def open_image(self, path: str, uri: Optional[str] = None) -> DocumentStore:
        """Load a persisted store image and attach it pool-wide."""
        from repro.storage.persist import load_store

        store = load_store(
            path, page_size=self.page_size, buffer_capacity=self.buffer_capacity
        )
        store.stats = self.stats
        store.page_manager.stats = self.stats
        store.type_index.stats = self.stats
        store.value_index.stats = self.stats
        store.buffer_pool.metrics = self.metrics
        key = uri if uri is not None else store.document.uri
        store.document.uri = key
        self._attach(key, store)
        return store

    #: CLI-facing alias mirroring :meth:`Engine.open`.
    open = open_image

    def open_durable(self, directory: str, uri: Optional[str] = None) -> "DurableStore":
        """Open (recovering if needed) a durable store directory and attach
        its current version pool-wide; subsequent :meth:`update` calls for
        its uri go through the WAL."""
        from repro.updates.durable import DurableStore

        with self.tracer.start("recovery", detail=directory, stats=self.stats, force=True):
            durable = DurableStore.open(
                directory, page_size=self.page_size, buffer_capacity=self.buffer_capacity
            )
        return self.adopt_durable(durable, uri=uri)

    def adopt_durable(self, durable: "DurableStore", uri: Optional[str] = None) -> "DurableStore":
        """Attach an already-opened :class:`DurableStore` pool-wide (the
        sharded service opens first, then routes to the owning shard)."""
        store = durable.store
        store.stats = self.stats
        store.page_manager.stats = self.stats
        store.type_index.stats = self.stats
        store.value_index.stats = self.stats
        store.buffer_pool.metrics = self.metrics
        key = uri if uri is not None else store.document.uri
        store.document.uri = key
        self.metrics.observe("service.recovery_seconds", durable.recovery.duration_s)
        if durable.recovery.replayed:
            self.metrics.incr("service.recovery_replayed", durable.recovery.replayed)
        with self._write_lock:
            self._durables[key] = durable
            self._attach(key, store)
        return durable

    def adopt_store(self, uri: str, store: DocumentStore) -> DocumentStore:
        """Attach an externally built (immutable) store pool-wide.

        The replica tier (:mod:`repro.serve.replica`) seeds each replica
        with the primary's current store object — safe to share because
        stores are never mutated in place; updates derive copy-on-write
        versions — and then applies the shipped WAL tail through the
        replica's own :meth:`update` path."""
        self._attach(uri, store)
        return store

    def _attach(self, uri: str, store: DocumentStore) -> None:
        """Full (re)load of a uri: swap the store in and blanket-evict its
        cached views.  Busy engines pick the store up at their next
        checkout; idle ones are attached here."""
        with self._topology_lock:
            self._stores[uri] = store
            self.view_cache.invalidate_uri(uri)
            self._publish_locked(uri, store, invalidate_views=True)
        self.metrics.incr("service.documents_loaded")

    def _publish_locked(
        self, uri: str, store: DocumentStore, invalidate_views: bool
    ) -> None:
        """Hand ``store`` to every engine — immediately to engines idle in
        the pool, as a pending attach to busy ones.  Caller holds the
        topology lock, so an engine checked in concurrently still drains
        its pending entry before serving another query."""
        idle: list[Engine] = []
        while True:
            try:
                idle.append(self._idle.get_nowait())
            except queue.Empty:
                break
        idle_ids = {id(engine) for engine in idle}
        for engine in self._engines:
            if id(engine) not in idle_ids:
                self._pending[id(engine)][uri] = store
        for engine in idle:
            # An engine checked in since an earlier publish still holds
            # that version as pending; its next checkout would attach it
            # over this one.
            self._pending[id(engine)].pop(uri, None)
            engine.attach(uri, store, invalidate_views=invalidate_views)
            self._idle.put(engine)

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
            with span("update.publish"), self._topology_lock:
                self._stores[uri] = result.store
                self.view_cache.revalidate(
                    uri, result.store.document, result.touched_paths
                )
                self._publish_locked(uri, result.store, invalidate_views=False)
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
        with self._topology_lock:
            store = self._stores.get(uri)
        if store is None:
            from repro.errors import QueryEvaluationError

            raise QueryEvaluationError(f"no document loaded under {uri!r}")
        return store

    def uris(self) -> list[str]:
        with self._topology_lock:
            return list(self._stores)

    def warm(self, uri: str, spec: str) -> None:
        """Pre-resolve a virtual view so the first query finds it hot."""
        with self._engine() as engine:
            engine.virtual(uri, spec)

    def resolve_view(self, uri: str, spec: str):
        """The resolved :class:`~repro.core.virtual_document.VirtualDocument`
        for ``(uri, spec)`` — the instance queries navigate, so the
        scatter-gather merge can attribute result items to their source
        container by identity."""
        with self._engine() as engine:
            return engine.virtual(uri, spec)

    # -- execution ---------------------------------------------------------------

    def _checkout(self, wait: bool = True) -> Optional[Engine]:
        """The next idle engine with its pending stores attached.  With
        ``wait=False``, ``None`` instead of blocking: no engine is idle,
        or a writer holds the topology lock (it is publishing)."""
        started = time.perf_counter()
        with span("checkout") as checkout_span:
            if wait:
                engine = self._idle.get()
                self._topology_lock.acquire()
            else:
                try:
                    engine = self._idle.get_nowait()
                except queue.Empty:
                    checkout_span.set("busy", True)
                    return None
                if not self._topology_lock.acquire(blocking=False):
                    self._idle.put(engine)
                    checkout_span.set("busy", True)
                    return None
            try:
                pending = self._pending[id(engine)]
                if pending:
                    for uri, store in pending.items():
                        engine.attach(uri, store, invalidate_views=False)
                    pending.clear()
            finally:
                self._topology_lock.release()
        self.metrics.observe(
            "service.checkout_seconds", time.perf_counter() - started
        )
        return engine

    def _checkin(self, engine: Engine) -> None:
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
        query: str,
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        budget=None,
        wait: bool = True,
    ) -> Optional[Result]:
        """Evaluate ``query`` on the next idle engine (blocking while the
        whole pool is busy).  Plan and view caches are consulted inside
        the engine; see the metric names in :mod:`repro.service.metrics`.

        ``budget`` overrides the service's :attr:`default_budget` for
        this query (pass one built with ``clamped`` to let callers
        tighten but not loosen the default).

        ``wait=False`` answers ``None`` instead of blocking when no
        engine can be checked out at once — the serving tier's inline
        reads (:mod:`repro.serve.app`) must never wait on the event loop.

        When the request is sampled (:attr:`tracer`), the trace opens
        here at admission — pool checkout, parsing, view resolution, and
        every axis step below land in one span tree."""
        handle = self.tracer.start("query", detail=_preview(query), stats=self.stats)
        with handle as root:
            engine = self._checkout(wait)
            if engine is None:
                return None
            self.metrics.incr("service.queries")
            try:
                result = engine.execute(
                    query,
                    mode=mode,
                    variables=variables,
                    budget=budget if budget is not None else self.default_budget,
                )
            finally:
                self._checkin(engine)
            root.set("items", len(result))
            return result

    def execute_plan(
        self,
        expr,
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        detail: str = "",
        budget=None,
    ) -> Result:
        """Evaluate an already-parsed expression on the next idle engine.

        The scatter-gather executor parses once through the shared
        :attr:`plan_cache`, *specializes* the plan per shard, and hands
        each shard its expression here — re-parsing (or cache-keying) the
        specialized plans would defeat the single parse.
        """
        self.metrics.incr("service.queries")
        handle = self.tracer.start("query", detail=detail, stats=self.stats)
        with handle as root:
            with self._engine() as engine:
                result = engine.execute(
                    expr,
                    mode=mode,
                    variables=variables,
                    budget=budget if budget is not None else self.default_budget,
                )
            root.set("items", len(result))
            return result

    def batch(
        self,
        queries: list[str],
        mode: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> BatchResult:
        """Evaluate ``queries`` concurrently (at most ``workers`` at once,
        default the pool size), returning outcomes in submission order.
        Failures are captured per query, not raised."""
        return run_batch(self, queries, mode, workers or self.pool_size)

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

    def reset_stats(self) -> None:
        self.stats.reset()
        self.metrics.reset()
