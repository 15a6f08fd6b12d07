"""Scatter-gather query execution over a sharded document collection.

A :class:`ShardedService` partitions a collection across N shards, each
backed by its own :class:`~repro.service.service.QueryService` (engine
pool + stores; optionally durable).  One parse, one metrics block, one
tracer, one plan cache, and one view cache are shared across shards —
uris are disjoint, so cache entries never collide — and a query flows:

1. **Parse once** through the shared plan cache, then analyse the plan's
   ``doc``/``virtualDoc`` sources (:mod:`repro.shard.plan`) — once per
   query text: the analysis, and the text's specializations, are kept in
   its cached :class:`~repro.service.cache.Plan`.
2. **Route.** A plan whose sources live on one shard executes there
   directly — the result object is exactly what the unsharded service
   would return.  This is the common case for per-document traffic.
3. **Scatter.** A plan spanning shards is *specialized* per shard (each
   shard sees its own documents; foreign sources become the empty
   sequence) and fanned out on a pool of one thread per shard, one task
   per involved shard; each shard evaluates with the existing virtual /
   indexed / columnar paths.
4. **Gather.** Per-shard streams — each already in document order —
   are cut into runs of one container and merged into global document
   order by source ordinal, the runs' extant PBNs verified
   (:mod:`repro.shard.merge`), or recombine through a distributive
   aggregate (``count``/``sum``/``exists``).

This is cheap *because of the paper*: every node keeps its extant PBN
and level arrays per type, so shards never renumber and the gather is a
pure comparison merge — the "don't renumber" argument of Section 5
applied across a collection instead of across a transformation.  The
unsharded evaluator answers a union in one key-ordered pass as well, so
a scatter is not cheaper than the same union on one shard: the
benchmark's ``shard.scatter_speedup`` row (the one-shard time over the
scatter's) reads just under 1.  Shards hand back live items — nothing
is serialized between scatter and gather — so the coordinator writes
the merged answer once.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from repro.obs.trace import Tracer, fork
from repro.query.engine import Result, _preview
from repro.query.items import is_node
from repro.service.cache import Plan, PlanCache, ViewCache
from repro.service.metrics import ServiceMetrics
from repro.service.service import (
    PLAN_CACHE_CAPACITY,
    VIEW_CACHE_CAPACITY,
    QueryService,
    recover,
    service_snapshot,
)
from repro.storage.stats import StorageStats

from repro.shard.catalog import ShardCatalog, ShardError
from repro.shard.merge import merge_runs, source_ordinals, stream_runs
from repro.shard.plan import (
    COMBINERS,
    check_scatterable,
    combiner_of,
    referenced_sources,
    specialize,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.storage.store import DocumentStore
    from repro.updates.durable import DurableStore
    from repro.updates.mutations import MutationResult
    from repro.updates.ops import UpdateOp
    from repro.xmlmodel.nodes import Document as DocumentNode


class BatchResult:
    """The outcome of :meth:`ShardedService.batch`, in submission order.

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


class ShardResult(Result):
    """A gathered scatter result: the merged items in global document
    order (or the single combined aggregate value), serialized like any
    engine ``Result``.

    :ivar elapsed_seconds: scatter wall-clock (fan-out to last gather).
    :ivar shards: shard ids that evaluated a specialization.
    """

    def __init__(self, items: list, elapsed_seconds: float, shards: list[int]) -> None:
        super().__init__(items, elapsed_seconds)
        self.shards = shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardResult({len(self.items)} items over shards {self.shards})"


class Route(NamedTuple):
    """Where one query runs (:meth:`ShardedService.route`): its cached
    :class:`~repro.service.cache.Plan` (source analysis filled), the
    placement of the documents it names, and the one shard it routes
    to — ``None`` when it scatters."""

    plan: Plan
    involved: dict
    shard: Optional[int]


class ShardedService:
    """A collection-level facade over per-shard :class:`QueryService`\\ s.

    :param shards: number of shards.
    :param pool_size: engines *per shard*.
    :param mode: default navigation mode of every shard.
    :param placement: explicit ``uri -> shard`` placement overrides
        (hash placement otherwise; see :class:`ShardCatalog`).
    :param tracer: the one tracer of the collection (the CLI builds it
        from its sampling flags); an unsampled one when omitted.

    A scatter runs one task per involved shard on a pool of one thread
    per shard.  Metrics, storage stats, tracer, plan cache, and view
    cache are shared across the whole collection, so ``/metrics``
    aggregates all shards in one scrape.
    """

    def __init__(
        self,
        shards: int = 4,
        pool_size: int = 2,
        mode: str = "indexed",
        placement: Optional[dict[str, int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.catalog = ShardCatalog(shards, placement)
        self.metrics = ServiceMetrics()
        self.stats = StorageStats()
        self.tracer = tracer if tracer is not None else Tracer()
        self.plan_cache = PlanCache(PLAN_CACHE_CAPACITY, self.metrics)
        self.view_cache = ViewCache(VIEW_CACHE_CAPACITY, self.metrics)
        self.services: list[QueryService] = [
            QueryService(
                pool_size=pool_size,
                mode=mode,
                metrics=self.metrics,
                tracer=self.tracer,
                stats=self.stats,
                plan_cache=self.plan_cache,
                view_cache=self.view_cache,
            )
            for _ in range(shards)
        ]
        #: per-shard :class:`~repro.serve.replica.ReplicaSet`\ s, attached
        #: by the serving tier (:meth:`attach_replicas`); ``None`` routes
        #: every read to the shard primaries.
        self.replica_sets = None
        self._pool = ThreadPoolExecutor(
            max_workers=max(shards, 1),
            thread_name_prefix="shard-scatter",
        )

    # -- topology ----------------------------------------------------------------

    def service_for(self, uri: str) -> QueryService:
        """The :class:`QueryService` owning ``uri``."""
        return self.services[self.catalog.shard_of(uri)]

    def attach_replicas(self, replica_sets) -> None:
        """Attach one :class:`~repro.serve.replica.ReplicaSet` per shard.

        Once attached, reads route through ``read_service()`` (a caught-up
        replica, or the primary as fallback) and writes route through the
        set so every applied op is shipped to the replicas.
        """
        if len(replica_sets) != self.catalog.shards:
            raise ShardError(
                f"need one replica set per shard: got {len(replica_sets)} "
                f"for {self.catalog.shards} shards"
            )
        for shard, replica_set in enumerate(replica_sets):
            if replica_set.primary is not self.services[shard]:
                raise ShardError(
                    f"replica set {shard} does not wrap that shard's primary"
                )
        self.replica_sets = list(replica_sets)

    def read_service(self, shard: int, wait: bool = True) -> Optional[QueryService]:
        """Where shard ``shard``'s next read executes: a caught-up replica
        when a replica set is attached, the primary otherwise.  With
        ``wait=False``, ``None`` where the replica set would have to wait
        or replay (:meth:`ReplicaSet.read_service`)."""
        if self.replica_sets is not None:
            return self.replica_sets[shard].read_service(wait)
        return self.services[shard]

    # -- documents ---------------------------------------------------------------

    def _place(self, uri: str, shard: Optional[int], attach):
        """Attach ``uri`` on its shard with ``attach(service)`` (``shard``
        overrides the hash placement; a reload keeps its shard), then
        register it and seed the shard's replicas with the attached
        store.  An attach that raises leaves no trace of ``uri``."""
        catalog = self.catalog
        owner = catalog.shard_of(uri) if uri in catalog else catalog.place(uri, shard)
        service = self.services[owner]
        attached = attach(service)
        catalog.register(uri, owner)
        self.metrics.incr("shard.documents", labels={"shard": str(owner)})
        if self.replica_sets is not None:
            self.replica_sets[owner].seed(uri, service.store(uri))
        return attached

    def load(
        self, uri: str, source: Union[str, "DocumentNode"], shard: Optional[int] = None
    ) -> "DocumentStore":
        """Load a document onto its placed shard."""
        return self._place(uri, shard, lambda service: service.load(uri, source))

    def open(
        self, path: str, uri: Optional[str] = None, shard: Optional[int] = None
    ) -> "DocumentStore":
        """Load a persisted store image (under its saved uri, or ``uri``)
        onto the owning shard."""
        if uri is None:
            from repro.storage.persist import peek_uri

            uri = peek_uri(path)
        return self._place(uri, shard, lambda service: service.open(path, uri=uri))

    def open_durable(
        self, directory: str, uri: Optional[str] = None, shard: Optional[int] = None
    ) -> "DurableStore":
        """Open a durable store directory and attach it to the owning
        shard; ``update`` calls for its uri go through that shard's WAL."""
        durable = recover(directory, self.tracer, self.stats)
        key = uri if uri is not None else durable.store.document.uri
        return self._place(key, shard, lambda service: service.adopt_durable(durable, uri=key))

    def store(self, uri: str) -> "DocumentStore":
        return self.service_for(uri).store(uri)

    def uris(self) -> list[str]:
        return self.catalog.uris()

    # -- updates -----------------------------------------------------------------

    def update(self, uri: str, op: "UpdateOp") -> "MutationResult":
        """Route one update to the shard owning ``uri``; the shard's own
        write path (WAL, snapshot publish, view revalidation) applies."""
        shard = self.catalog.shard_of(uri)
        self.metrics.incr("shard.updates", labels={"shard": str(shard)})
        if self.replica_sets is not None:
            return self.replica_sets[shard].update(uri, op)
        return self.service_for(uri).update(uri, op)

    def checkpoint(self, uri: str) -> int:
        return self.service_for(uri).checkpoint(uri)

    # -- execution ---------------------------------------------------------------

    def route(self, query: str) -> Route:
        """Parse ``query`` once (through the shared plan cache) and decide
        where it runs: :attr:`Route.shard` is the one shard its sources
        live on, or ``None`` when the plan scatters.  Raises the routing
        errors :meth:`execute` would (a computed uri across shards, an
        unscatterable plan)."""
        plan = self.plan_cache.get_or_parse(query)
        # Source analysis is pure AST work, O(plan size): kept in the plan,
        # so a repeated text (the common case behind the service) skips it.
        analysis = plan.analysis
        if analysis is None:
            analysis = plan.analysis = referenced_sources(plan.expr)
        if self.catalog.shards == 1:
            self.metrics.incr("shard.routed_single")
            return Route(plan, {}, 0)
        if analysis.dynamic:
            raise ShardError(
                "cannot route a doc()/virtualDoc() call with a computed uri "
                "across shards; use literal uris (or a 1-shard collection)"
            )
        involved = {uri: self.catalog.place(uri) for uri in analysis.uris}
        shard_set = sorted(set(involved.values()))
        if len(shard_set) <= 1:
            self.metrics.incr("shard.routed_single")
            return Route(plan, involved, shard_set[0] if shard_set else 0)
        check_scatterable(analysis, involved)
        return Route(plan, involved, None)

    def execute(
        self,
        query: str,
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        budget=None,
        route: Optional[Route] = None,
    ):
        """Evaluate ``query`` against the collection.

        Single-shard plans route directly (identical behaviour to the
        unsharded service); multi-shard plans scatter-gather.  Returns a
        ``Result`` (routed) or :class:`ShardResult` (scattered) — both
        expose ``items`` / ``values()`` / ``to_xml()`` / ``len``.

        ``budget`` caps this query's metered cost *per shard* (each
        specialization gets its own meter over the shared limit).
        ``route`` is :meth:`route`'s decision for ``query`` when the
        caller has made it already.
        """
        if route is None:
            route = self.route(query)
        if route.shard is not None:
            return self.read_service(route.shard).execute(
                query, mode=mode, variables=variables, budget=budget
            )
        self._check_variables(variables)
        return self._scatter(route, query, mode, variables, budget)

    def _check_variables(self, variables) -> None:
        for value in (variables or {}).values():
            items = value if isinstance(value, list) else [value]
            if any(is_node(item) for item in items):
                raise ShardError(
                    "node-valued variables cannot be broadcast across "
                    "shards; route the query to the shard owning the nodes"
                )

    def _scatter(self, route: Route, query, mode, variables, budget=None):
        started = time.perf_counter()
        self.metrics.incr("shard.scatter_queries")
        combine = combiner_of(route.plan.expr)
        handle = self.tracer.start(
            "scatter", detail=_preview(query), stats=self.stats
        )
        with handle as root:
            # The specializations depend on the placement too: it changes
            # when a uri the text names is loaded, after the text first
            # ran, onto another shard than its hash's.
            placed = route.plan.placed
            if placed is None or placed[0] != route.involved:
                placed = route.plan.placed = (route.involved, {
                    shard: specialize(route.plan.expr, uris)
                    for shard, uris in _by_shard(route.involved).items()
                })
            plans = placed[1]
            outcome = self._gather(
                plans, route.plan.analysis, mode, variables, combine, query, budget
            )
            elapsed = time.perf_counter() - started
            outcome.elapsed_seconds = elapsed
            if root is not None:
                root.set("shards", len(plans))
                root.set("items", len(outcome))
                if combine:
                    root.set("combiner", combine)
        self.metrics.observe("shard.scatter_seconds", elapsed)
        self.metrics.incr("shard.scatter_fanout", len(plans))
        return outcome

    def _gather(
        self, plans, analysis, mode, variables, combine, query, budget=None
    ) -> ShardResult:
        detail = _preview(query)
        # Pin each shard's read target (primary or replica) once per query.
        executors = {shard: self.read_service(shard) for shard in plans}
        # Each shard task carries a forked span: parentage is decided
        # here at fan-out (under the ``scatter`` span), and the fragment
        # becomes the active span on whichever pool thread runs the task
        # — pool threads do not inherit the request's contextvars.
        futures = {
            shard: self._pool.submit(
                _run_forked,
                fork("shard.scatter", f"shard={shard}"),
                executors[shard].execute,
                plan,
                mode=mode,
                variables=variables,
                budget=budget,
                detail=f"shard={shard} {detail}",
            )
            for shard, plan in sorted(plans.items())
        }
        results = {shard: future.result() for shard, future in futures.items()}
        shard_ids = sorted(results)
        if combine:
            combined = COMBINERS[combine](
                results[shard].items[0] for shard in shard_ids
            )
            return ShardResult([combined], 0.0, shard_ids)
        sources = [
            ((source.kind, source.uri, source.spec), ordinal)
            for ordinal, source in enumerate(analysis.sources)
        ]
        merged = merge_runs([
            stream_runs(results[shard].items, source_ordinals(results[shard].sources, sources))
            for shard in shard_ids
        ])
        return ShardResult(merged, 0.0, shard_ids)

    def batch(
        self,
        queries: list[str],
        mode: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> BatchResult:
        """Evaluate ``queries`` on at most ``workers`` threads (default two
        per shard), each routed or scattered as :meth:`execute` would;
        outcomes in submission order, failures captured per query, not
        raised."""
        self.metrics.incr("service.batches")
        started = time.perf_counter()
        workers = min(workers or self.catalog.shards * 2, max(len(queries), 1))

        def run(text: str):
            try:
                return self.execute(text, mode=mode)
            except Exception as error:  # per-query fault isolation
                return error

        if workers <= 1:
            outcomes = [run(text) for text in queries]
        else:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                outcomes = list(executor.map(run, queries))
        return BatchResult(outcomes, time.perf_counter() - started)

    # -- explain -----------------------------------------------------------------

    def explain(self, query: str, mode: Optional[str] = None) -> dict:
        """EXPLAIN ANALYZE.  A routed plan answers its shard's report,
        byte for byte what :meth:`QueryService.explain` answers.  A
        scatter profiles each involved shard's plan specialization under
        a forced trace; every operator row carries a ``shard`` attribute,
        and the per-shard renderings concatenate into one report.  Raises
        the routing errors :meth:`execute` would."""
        from repro.obs.profile import build_profile, operators, render_profile

        route = self.route(query)
        if route.shard is not None:
            return self.services[route.shard].explain(query, mode)
        self.metrics.incr("service.explains")
        shard_uris = _by_shard(route.involved)
        shards_report: dict[str, dict] = {}
        rendered_parts: list[str] = []
        total_items = 0
        total_ms = 0.0
        for shard, uris in sorted(shard_uris.items()):
            result, trace = self.services[shard].explain_plan(
                specialize(route.plan.expr, uris),
                mode=mode,
                detail=f"shard={shard} {_preview(query)}",
            )
            profile = build_profile(trace)
            for node in profile.walk():
                node.attrs["shard"] = shard
            shards_report[str(shard)] = {
                "profile": profile.to_dict(),
                "operators": [node.label for node in operators(profile)],
                "items": len(result),
            }
            total_items += len(result)
            total_ms += result.elapsed_seconds * 1e3
            rendered_parts.append(render_profile(profile))
        return {
            "plan": self.services[min(shard_uris)].explain_text(query),
            "shards": shards_report,
            "rendered": "\n\n".join(rendered_parts),
            "summary": {
                "items": total_items,
                "elapsed_ms": round(total_ms, 4),
                "fanout": len(shard_uris),
            },
        }

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """One collection-wide report: the shared metrics/storage/cache
        counters plus the shard topology and per-shard durable state."""
        report = service_snapshot(self, self.services)
        report["shards"] = self.catalog.summary()
        return report

    def close(self) -> None:
        """Shut down the scatter pool."""
        self._pool.shutdown(wait=False)


def _by_shard(involved: dict[str, int]) -> dict[int, set[str]]:
    """A scatter's ``uri -> shard`` placement grouped by shard."""
    shard_uris: dict[int, set[str]] = {}
    for uri, shard in involved.items():
        shard_uris.setdefault(shard, set()).add(uri)
    return shard_uris


def _run_forked(fragment, fn, *args, **kwargs):
    """Run a scatter task inside its forked span (on the pool thread)."""
    with fragment:
        return fn(*args, **kwargs)
