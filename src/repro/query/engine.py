"""The engine facade: load documents, run queries, inspect results.

::

    engine = Engine()
    engine.load("book.xml", "<data>...</data>")
    result = engine.execute(
        'for $t in virtualDoc("book.xml", "title { author { name } }")//title '
        'return <entry>{ $t/text() }{ count($t/author) }</entry>'
    )
    print(result.to_xml())

The engine owns one :class:`~repro.storage.stats.StorageStats` block; every
store, index, and navigator reports into it, so ``engine.stats`` after a
query is the query's logical cost.
"""

from __future__ import annotations

import logging
import time
from typing import Optional, Union

from repro.core.virtual_document import VirtualDocument
from repro.errors import LineageError, QueryBudgetExceeded, QueryEvaluationError
from repro.obs.trace import current_span, current_trace_id, span
from repro.query import ast
from repro.query.context import Context
from repro.query.eval import Evaluator
from repro.query.items import Constructed, items_to_xml, string_value
from repro.query.parser import parse_query
from repro.storage.stats import StorageStats
from repro.storage.store import DocumentStore
from repro.vdataguide.grammar import parse_vdataguide
from repro.xmlmodel.nodes import Document, Element, Node, NodeKind
from repro.xmlmodel.parser import parse_document

logger = logging.getLogger("repro.engine")


def _preview(text: str, limit: int = 120) -> str:
    """Query text bounded for span details and log lines."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


class Result:
    """A query result: a sequence of items with convenience accessors.

    Element constructors answer lazy :class:`~repro.query.items.Constructed`
    items: :meth:`to_xml` and :meth:`values` read them as they are, while
    :attr:`items`, iteration and indexing hand out their elements, built
    on first access.

    :ivar elapsed_seconds: wall-clock evaluation time of the query that
        produced this result (parse + evaluate).
    :ivar sources: ``(kind, uri, spec) -> container`` — the document or
        virtual document each ``doc()`` / ``virtualDoc()`` call of the
        query resolved to (``spec`` is ``None`` for ``doc()``), so a
        scatter attributes items to the very containers it navigated.
    """

    def __init__(
        self, items: list, elapsed_seconds: float = 0.0, sources: Optional[dict] = None
    ) -> None:
        self._items = items
        self.elapsed_seconds = elapsed_seconds
        self.sources = sources if sources is not None else {}

    @property
    def items(self) -> list:
        """The items, constructed elements settled."""
        items = self._items
        if any(type(item) is Constructed for item in items):
            items = self._items = [
                item.settle() if type(item) is Constructed else item for item in items
            ]
        return items

    @property
    def unsettled(self) -> list:
        """The items as evaluated, constructed ones not built — for
        writers (:func:`~repro.query.items.write_item`)."""
        return self._items

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int):
        return self.items[index]

    def values(self) -> list[str]:
        """String values of all items."""
        return [string_value(item) for item in self._items]

    def to_xml(self) -> str:
        """Serialize the result sequence: nodes as XML (virtual nodes as
        their transformed values, constructed items without building
        them), atomics via the XPath rules."""
        return items_to_xml(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Result({len(self._items)} items)"


class Engine:
    """Query engine over a set of loaded documents.

    :param mode: default navigation for stored documents — ``"indexed"``
        (the PBN indexes, navigated as the store's identity view; the
        realistic XML DBMS configuration), ``"tree"``
        (pointer navigation baseline), or ``"sql"`` (relational
        evaluation over a view's SQLite accel, a stored document's
        through its identity view).  Per-query override via
        ``execute(..., mode=...)``.
    :param page_size: heap page size for loaded documents.
    :param buffer_capacity: buffer pool pages per document.
    :param stats: a shared counter block (``QueryService`` hands every
        pooled engine the same one); a fresh block when omitted.
    :param metrics: optional :class:`~repro.service.metrics.ServiceMetrics`
        receiving operational counters and latency histograms.
    :param plan_cache: optional :class:`~repro.service.cache.PlanCache`;
        when set, ``execute`` resolves query text through it instead of
        re-parsing.
    :param view_cache: optional :class:`~repro.service.cache.ViewCache`;
        when set, ``virtual`` resolves views through it instead of the
        engine-local memo, sharing level arrays across an engine pool.
    :param tracer: optional :class:`~repro.obs.trace.Tracer`; when set,
        ``execute`` opens a sampled trace for queries that are not
        already running under one (the ``QueryService`` opens the trace
        at admission instead, before engine checkout).
    """

    def __init__(
        self,
        mode: str = "indexed",
        page_size: int = 4096,
        buffer_capacity: int = 256,
        stats: Optional[StorageStats] = None,
        metrics=None,
        plan_cache=None,
        view_cache=None,
        tracer=None,
    ) -> None:
        self.mode = mode
        self.page_size = page_size
        self.buffer_capacity = buffer_capacity
        self.stats = stats if stats is not None else StorageStats()
        self.metrics = metrics
        self.plan_cache = plan_cache
        self.view_cache = view_cache
        self.tracer = tracer
        self._stores: dict[str, DocumentStore] = {}
        #: ``Document.lineage`` -> the one version of it this engine holds.
        self._store_by_lineage: dict[object, DocumentStore] = {}
        self._virtuals: dict[tuple[str, str], VirtualDocument] = {}
        # strategy=sql accel tables, one per view (a store's identity
        # view included), built lazily and cached like the level arrays.
        # Keyed by object id; each entry keeps a reference to its view so
        # a recycled id can never alias a new view to a stale accel.
        self._sql_accels: dict[int, tuple] = {}
        self._containers: dict[int, int] = {}
        self._container_refs: list = []  # keeps ids stable/alive
        #: ``(kind, uri, spec) -> container`` of the ``doc()`` /
        #: ``virtualDoc()`` calls the running query resolved (a fresh dict
        #: per query, handed to its :class:`Result` when it ends).
        self.sources: dict[tuple, object] = {}
        self._constructed = 0

    # -- documents ---------------------------------------------------------------

    def load(self, uri: str, source: Union[str, Document]) -> DocumentStore:
        """Parse (if given text), number, and store a document under ``uri``."""
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
        logger.info(
            "loaded %r: %s nodes, %s types, %s heap pages",
            uri,
            store.size_summary()["nodes"],
            store.size_summary()["types"],
            store.heap.page_count,
        )
        self.attach(uri, store)
        return store

    def attach(self, uri: str, store: DocumentStore, invalidate_views: bool = True) -> None:
        """Register a pre-built store under ``uri`` without rebuilding it.

        ``QueryService`` loads each document once and attaches the same
        immutable store to every pooled engine; reloading a uri drops any
        cached virtual views over the old document.  The service passes
        ``invalidate_views=False`` when publishing an *update* version —
        it already ran the shared cache's fine-grained revalidation, and
        a blanket eviction here would throw away views the update never
        touched.

        An engine holds one version of a document: attaching a version
        whose lineage (:attr:`~repro.xmlmodel.nodes.Document.lineage`) is
        held under another uri raises :class:`~repro.errors.LineageError`
        — the versions share nodes, and answers over both would dedupe
        them.  Attaching the next version under the same uri replaces
        the previous one.

        Only call while no query is in flight on this engine: the maps
        for the uri's previous store are dropped.
        """
        lineage = store.document.lineage
        held = self._store_by_lineage.get(lineage)
        if held is not None and self._stores.get(uri) is not held:
            raise LineageError(
                uri, next(u for u, s in self._stores.items() if s is held)
            )
        previous = self._stores.get(uri)
        if previous is not None and previous is not store:
            self._store_by_lineage.pop(previous.document.lineage, None)
            # Copy-on-write invalidation for strategy=sql: a durable
            # update publishes a *new* store object with a view of its
            # own, so closing the accel of the previous store's identity
            # view — if that view was ever built — is the entire story.
            # (Touched views get new vdoc objects from revalidation and
            # miss the cache the same way.)
            view = previous._view
            stale = None if view is None else self._sql_accels.pop(id(view), None)
            if stale is not None:
                stale[1].close()
        self._stores[uri] = store
        self._store_by_lineage[lineage] = store
        # Invalidate cached virtual views of a replaced uri.
        for key in [k for k in self._virtuals if k[0] == uri]:
            del self._virtuals[key]
        if invalidate_views and self.view_cache is not None:
            self.view_cache.invalidate_uri(uri)

    def document(self, uri: str) -> Document:
        """The document node for ``doc(uri)``."""
        return self.store(uri).document

    def store(self, uri: str) -> DocumentStore:
        store = self._stores.get(uri)
        if store is None:
            raise QueryEvaluationError(f"no document loaded under {uri!r}")
        return store

    def virtual(self, uri: str, spec: str) -> VirtualDocument:
        """The virtual document for ``virtualDoc(uri, spec)``.

        Resolved vDataGuides (with their Algorithm 1 level arrays) are
        cached per ``(uri, spec)`` — the arrays are a per-type map, built
        once, reused by every query (paper Section 5.2).  With a shared
        :attr:`view_cache` attached (the ``QueryService`` configuration),
        resolution goes through it so the whole engine pool reuses one
        build.
        """
        if self.view_cache is not None:
            return self.view_cache.get_or_build_view(self, uri, spec)
        key = (uri, spec)
        vdoc = self._virtuals.get(key)
        if vdoc is None:
            vdoc = self.build_virtual(uri, spec)
            self._virtuals[key] = vdoc
        return vdoc

    def build_virtual(self, uri: str, spec: str) -> VirtualDocument:
        """Resolve ``spec`` against the stored document under ``uri`` and
        run Algorithm 1 — the uncached work a view-cache hit skips."""
        store = self.store(uri)
        with span("view.resolve", f"{uri} {spec}") as resolve_span:
            with span("algorithm1"):
                # vDataGuide resolution including the O(cN) level-array
                # construction the paper's Algorithm 1 describes.
                vguide = parse_vdataguide(spec, store.guide)
            vdoc = VirtualDocument(store.document, vguide, stats=self.stats, store=store)
            if resolve_span is not None:
                resolve_span.set("vtypes", len(vguide))
                resolve_span.set("chain_exact", str(vguide.chain_exact()))
        logger.info(
            "built virtual view %r over %r: %d virtual types, chain-exact=%s",
            spec, uri, len(vguide), vguide.chain_exact(),
        )
        return vdoc

    def store_of(self, node: Node) -> Optional[DocumentStore]:
        """The version of ``node``'s document this engine holds, or
        ``None`` for constructed / unregistered nodes.  The ``parent``
        walk may end at another version's document (versions share
        nodes); every version answers the same lineage."""
        top = node
        while top.parent is not None:
            top = top.parent
        if top.kind is NodeKind.DOCUMENT:
            return self._store_by_lineage.get(top.lineage)
        return None

    def root_of(self, node: Node) -> Node:
        """The root of ``node``'s tree: the document of the version this
        engine holds for a stored node, else the top of its own tree (a
        constructed element, or its ``#constructed-N`` document)."""
        store = self.store_of(node)
        if store is not None:
            return store.document
        while node.parent is not None:
            node = node.parent
        return node

    #: Accel tables cached per engine before the oldest is evicted (and
    #: its sqlite connection closed) — a small bound; rebuilding is one
    #: linear pass.
    SQL_ACCEL_CAPACITY = 16

    def sql_accel(self, view: VirtualDocument):
        """The ``strategy=sql`` accel for ``view`` — a virtual document or
        a store's identity view (lazy; cached until its store is replaced
        or it is evicted)."""
        from repro.query.sqlbackend import VirtualAccel

        cache = self._sql_accels
        cached = cache.get(id(view))
        if cached is not None and cached[0] is view:
            return cached[1]
        while len(cache) >= self.SQL_ACCEL_CAPACITY:
            cache.pop(next(iter(cache)))[1].close()
        accel = VirtualAccel(view, metrics=self.metrics)
        cache[id(view)] = (view, accel)
        return accel

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        query: Union[str, ast.Expr],
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        context_item=None,
        budget=None,
    ) -> Result:
        """Parse (or accept pre-parsed) and evaluate ``query``.

        :param query: query text, or an already-parsed expression tree
            (as cached by a :class:`~repro.service.cache.PlanCache`).
        :param mode: override the engine's navigation mode
            (``"indexed"``, ``"tree"``, or ``"sql"``).
        :param variables: external ``$var`` bindings (values are wrapped
            into singleton sequences unless already lists).
        :param context_item: initial context item, if the query is a
            relative path.
        :param budget: optional :class:`~repro.query.budget.CostBudget`;
            evaluation aborts with
            :class:`~repro.errors.QueryBudgetExceeded` when the metered
            work crosses a limit (see :mod:`repro.query.budget`).
        """
        if (
            self.tracer is not None
            and isinstance(query, str)
            and current_span() is None
        ):
            handle = self.tracer.start(
                "query", detail=_preview(query), stats=self.stats
            )
            with handle:
                return self._execute(query, mode, variables, context_item, budget)
        return self._execute(query, mode, variables, context_item, budget)

    def _execute(self, query, mode, variables, context_item, budget=None) -> Result:
        started = time.perf_counter()
        # Cross-container result order is decided by first appearance
        # *within this query* (see Evaluator.document_order).  Reset the
        # index so the order cannot depend on which queries ran earlier
        # on this engine — a history-dependent order would differ between
        # pooled engines and could never be reproduced by a sharded merge.
        self._containers.clear()
        self._container_refs.clear()
        self.sources = sources = {}
        strategy = None
        if isinstance(query, str):
            effective = mode or self.mode
            # strategy=sql owns the label even for virtualDoc queries:
            # the sql accel steps virtual axes itself.
            if effective == "sql":
                strategy = "sql"
            else:
                strategy = "virtual" if "virtualDoc" in query else effective
            root_span = current_span()
            if root_span is None:
                expr = self._resolve_plan(query)
            else:
                with span("parse") as parse_span:
                    cached = (
                        self.plan_cache is not None and query in self.plan_cache
                    )
                    expr = self._resolve_plan(query)
                    parse_span.set(
                        "plan_cache",
                        "hit" if cached else
                        ("miss" if self.plan_cache is not None else "uncached"),
                    )
        else:
            expr = query
        meter = budget.meter() if budget is not None else None
        evaluator = Evaluator(self, mode or self.mode, meter=meter)
        bindings = {
            name: value if isinstance(value, list) else [value]
            for name, value in (variables or {}).items()
        }
        context = Context(self, bindings, item=context_item)
        with span("eval") as eval_span:
            try:
                items = evaluator.evaluate(expr, context)
            except QueryBudgetExceeded as error:
                if eval_span is not None:
                    eval_span.set("budget", error.dimension)
                if self.metrics is not None:
                    self.metrics.incr("engine.budget_rejections")
                raise
            finally:
                # The result carries them: an idle engine keeps no
                # version of a document or view alive.
                self.sources = {}
            if eval_span is not None:
                eval_span.set("items", len(items))
                eval_span.set("settled", evaluator.settled)
                if meter is not None:
                    eval_span.set("metered_visits", meter.node_visits)
        elapsed = time.perf_counter() - started
        root_span = current_span()
        if root_span is not None:
            root_span.set("mode", mode or self.mode)
            root_span.set("items", len(items))
            if strategy is not None:
                root_span.set("strategy", strategy)
        if self.metrics is not None:
            self.metrics.incr("engine.queries")
            # Sampled requests stamp their trace id onto the latency (and
            # per-strategy latency) histograms as exemplars, linking a
            # scrape outlier back to its stitched trace.
            exemplar = current_trace_id()
            self.metrics.observe("engine.query_seconds", elapsed, exemplar=exemplar)
            if strategy is not None:
                self.metrics.incr("engine.queries", labels={"strategy": strategy})
                self.metrics.observe(
                    f"engine.query_seconds.{strategy}", elapsed, exemplar=exemplar
                )
            if meter is not None:
                # Local import: repro.service imports this module at
                # package init, so the top level cannot import it back.
                from repro.service.metrics import count_bounds

                self.metrics.observe(
                    "engine.budget_visits",
                    float(meter.node_visits),
                    exemplar=exemplar,
                    bounds=count_bounds(),
                )
        if logger.isEnabledFor(logging.DEBUG) and isinstance(query, str):
            preview = query if len(query) <= 120 else query[:117] + "..."
            logger.debug(
                "query returned %d item(s) in %.3f ms [%s]: %s",
                len(items), elapsed * 1e3, mode or self.mode, preview,
            )
        return Result(items, elapsed, sources)

    def _resolve_plan(self, query: str):
        if self.plan_cache is not None:
            return self.plan_cache.get_or_parse(query)
        if self.metrics is not None:
            self.metrics.incr("engine.parses")
        return parse_query(query)

    def explain_analyze(
        self,
        query: Union[str, ast.Expr],
        mode: Optional[str] = None,
        variables: Optional[dict[str, list]] = None,
        detail: Optional[str] = None,
    ):
        """Run ``query`` under a forced trace and return
        ``(result, trace)`` — the trace feeds
        :func:`repro.obs.profile.build_profile` for the per-operator
        EXPLAIN ANALYZE rendering.  Uses the engine's tracer when one is
        attached, a throwaway otherwise.  Inside a traced request the
        query runs as a child span of the request's trace, and the trace
        returned is that span's own subtree, and the answer is written
        inside it (a ``result.to_xml`` row).  Accepts an already-parsed
        expression (the sharded scatter path profiles its per-shard plan
        specializations); pass ``detail`` to label the trace then."""
        from repro.obs.trace import Trace, Tracer, current_context

        if detail is None:
            detail = _preview(query) if isinstance(query, str) else ""
        tracer = self.tracer if self.tracer is not None else Tracer()
        handle = tracer.start(
            "query", detail=detail, stats=self.stats, force=True
        )
        with handle as root:
            result = self.execute(query, mode=mode, variables=variables)
            result.to_xml()  # the answer's writing is part of the profile
        if handle.trace is None:
            return result, Trace(root, parent=current_context())
        return result, handle.trace

    def explain(self, query: str) -> str:
        """A textual rendering of the parsed expression tree, followed —
        when the referenced documents are loaded — by per-step planner
        annotations (candidate types and cardinality estimates from the
        DataGuide statistics)."""
        from repro.query.plan import annotate_paths, explain_expr

        expr = parse_query(query)
        text = explain_expr(expr)
        annotations = annotate_paths(expr, self)
        if annotations:
            text += "\n\n" + "\n".join(annotations)
        return text

    # -- constructed nodes ---------------------------------------------------------

    def register_constructed(self, element: Element) -> Element:
        """Wrap a settled constructor result in its own document
        container, so constructed trees participate in document order
        (numbered by the first order comparison that needs it,
        ``Evaluator._order_path``)."""
        self._constructed += 1
        container = Document(f"#constructed-{self._constructed}")
        container.append(element)
        return element

    def container_index(self, container) -> int:
        """Stable ordering index for a document / virtual document /
        constructed tree (assigned on first sight)."""
        key = id(container)
        index = self._containers.get(key)
        if index is None:
            index = len(self._container_refs)
            self._containers[key] = index
            self._container_refs.append(container)
        return index

    # -- persistence ---------------------------------------------------------------

    def save(self, uri: str, path: str) -> int:
        """Save the document loaded under ``uri`` to a store image file;
        returns the image size in bytes."""
        from repro.storage.persist import save_store

        return save_store(self.store(uri), path)

    def open(self, path: str, uri: Optional[str] = None) -> DocumentStore:
        """Load a store image and register it (under its saved uri, or a
        caller-supplied override)."""
        from repro.storage.persist import load_store

        store = load_store(
            path, page_size=self.page_size, buffer_capacity=self.buffer_capacity
        )
        self.attach(store.rehome(self.stats, self.metrics, uri), store)
        return store

    # -- maintenance ---------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats.reset()

    def cold_caches(self) -> None:
        """Clear every buffer pool (simulate a cold start for I/O runs)."""
        for store in self._stores.values():
            store.buffer_pool.clear()

    def uris(self) -> list[str]:
        return list(self._stores)
