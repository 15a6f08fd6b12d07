"""Request routing for the serving tier: the one route table.

:class:`ServingApp` owns the request path between the asyncio HTTP
server (:mod:`repro.serve.http`) and the query service: admission
control, the worker pool that runs blocking engine work off the event
loop, per-query cost budgets, and read/write splitting across the
replica tier.

Where a read runs is one decision, made on the loop after admission.  A
read whose plan routes to one shard, whose engine and replica read
target are free without waiting, is evaluated *inline* on the loop under
:data:`INLINE_BUDGET`; its answer is written there when it is atomic
values or text / attribute nodes.  Everything else keeps the worker
pool: scatters, ``/update``, ``/explain``, the write of an element or
document answer, and a read that trips the inline budget (re-run under
the request's own budget).
``serve.reads{path=inline|pool, reason=}`` counts each decision, and the
request span carries the same ``path`` / ``reason``.  It is
protocol-independent — ``await app.handle(method,
path, params, headers, body)`` answers a :class:`Response` — and holds
the only error mapping (``400`` :class:`~repro.errors.ReproError`,
``422`` budget, ``429`` shed, ``500`` otherwise).  Endpoints:

``POST /query``
    Body is the query text.  Optional query parameters: ``mode``
    (``indexed`` / ``tree`` / ``sql``) and ``values=1`` to return
    newline-separated string values instead of XML.  ``200`` with the
    serialized result; ``400`` with the error message for
    parse/evaluation failures and for an empty or non-UTF-8 body.

``POST /query?max_visits=N&max_rows=M``
    per-request cost budget, clamped under the server's ``--query-budget``
    ceiling (clients can tighten the ceiling, never loosen it).  A query
    that crosses its budget is aborted *by the cost meter* mid-plan and
    answered ``422`` with the structured ``budget_exceeded`` payload —
    distinct from ``429`` (shed before execution) and from timeouts.

``POST /update``
    Body is a JSON update operation (the WAL payload format of
    :mod:`repro.updates.ops`): ``{"op": "insert", "parent": "1",
    "fragment": "<x/>", "before"/"after": ...}``, ``{"op": "delete",
    "target": "1.2"}``, or ``{"op": "replace", "target": "1.2.1",
    "text": ...}``.  The target document is the ``uri`` query parameter
    (optional when exactly one document is loaded).  ``200`` with
    ``{"uri", "version", "minted", "removed", "touched"}``; ``400`` for
    invalid operations (the store is unchanged).

``POST /explain``
    Body is the query text (optional ``mode`` parameter).  ``200`` with
    the EXPLAIN ANALYZE report of the service's ``explain`` — static
    plan, measured per-operator profile, and summary; ``400`` for
    parse/evaluation failures.

``GET /metrics``
    JSON by default: the service snapshot (counters, histograms, cache
    and storage stats) plus ``admission`` and ``replication`` blocks.
    With ``Accept: text/plain`` (or ``openmetrics``, or
    ``?format=prometheus``) the same counters render in the Prometheus
    text exposition format, ``text/plain; version=0.0.4``.

``GET /replication``
    per-shard replica state: ship-log position, per-replica applied
    sequence and lag, plus the admission controller's counters.

``GET /debug/traces``
    JSON dump of the tracer's ring buffer: ``{"recent": [...], "slow":
    [...], "counts": {...}}`` — each entry one full span tree.

``GET /healthz``
    JSON: ``{"status": "ok", "documents": [...], "shards": {...}}``, plus
    ``replicas`` when a replica tier is attached.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.core.virtual_document import VNode
from repro.errors import QueryBudgetExceeded, ReproError
from repro.obs.trace import NOOP, SpanContext, current_span, span, wrap
from repro.query.budget import CostBudget
from repro.serve.admission import AdmissionController, NullAdmission, ServiceOverloaded
from repro.serve.replica import ReplicaSet
from repro.xmlmodel.nodes import Node, NodeKind

#: Routes that carry query work (and therefore a request trace).
_WORK_ROUTES = ("/query", "/update", "/explain")

#: What a read may spend on the event loop.  A read whose plan routes to
#: one shard is evaluated inline under this budget (clamped by the
#: request's own); one that trips it is re-run on the worker pool under
#: the request's budget alone.  A query text the plan cache does not
#: hold is parsed on the loop only when it is at most this many
#: characters long.  Sized to about a millisecond on a 2-core host: a
#: point read is 251 visits, ``count(doc()//*)`` on books(250) 1,996
#: (docs/SERVING.md "Architecture").
INLINE_BUDGET = CostBudget(max_node_visits=2000)

#: Node kinds whose answers are written on the loop: their text is one
#: value, not a subtree.
_VALUE_KINDS = (NodeKind.TEXT, NodeKind.ATTRIBUTE)


class Response:
    """One routed response: status, media type, body, extra headers."""

    __slots__ = ("status", "content_type", "body", "headers")

    def __init__(
        self,
        status: int,
        body: str,
        content_type: str = "application/json",
        headers: Optional[dict] = None,
    ) -> None:
        self.status = status
        self.content_type = content_type
        self.body = body.encode("utf-8")
        self.headers = headers or {}


def _json_response(status: int, document: dict, headers: Optional[dict] = None):
    return Response(status, json.dumps(document, indent=2), headers=headers)


def _decode(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ReproError(f"request body is not valid UTF-8: {error}") from None


def _query_text(body: bytes) -> str:
    text = _decode(body)
    if not text.strip():
        raise ReproError("empty query body")
    return text


def _written_inline(result) -> bool:
    """Whether an answer is cheap to write on the loop: atomic values and
    text / attribute nodes only (an element or document is a subtree)."""
    for item in result.unsettled:
        if isinstance(item, VNode):
            item = item.node
        if isinstance(item, Node):
            if item.kind not in _VALUE_KINDS:
                return False
        elif not isinstance(item, (str, int, float, bool)):
            return False
    return True


def _own_limit(budget: Optional[CostBudget], dimension: str) -> Optional[int]:
    if budget is None:
        return None
    return budget.max_node_visits if dimension == "node_visits" else budget.max_step_rows


class _Admitted:
    """``async with``: one admission slot for a request's work, its wait
    recorded as a ``serve.admission`` span (contextvars survive the
    ``await`` natively)."""

    __slots__ = ("_slot",)

    def __init__(self, admission) -> None:
        self._slot = admission.slot()

    async def __aenter__(self) -> None:
        with span("serve.admission") as wait_span:
            wait_span.set("queue_depth", getattr(self._slot, "waiting", 0))
            await self._slot.__aenter__()

    async def __aexit__(self, *exc_info) -> None:
        await self._slot.__aexit__(None, None, None)


class ServingApp:
    """Routes requests onto a service through admission, then inline on
    the loop or on the worker pool (see the module doc).

    :param service: the :class:`~repro.shard.service.ShardedService` it
        serves (one shard serves an unpartitioned collection); its replica
        sets, if any, are attached to it (:func:`build_serving`).
    :param admission: the :class:`AdmissionController` guarding the
        work-bearing routes (``/query``, ``/update``, ``/explain``);
        ``None`` disables admission.
    :param max_budget: ceiling for per-request budgets; also the default
        budget when a request names none.
    :param workers: worker-pool threads for blocking engine work
        (default: the admission controller's ``max_inflight``).
    """

    def __init__(
        self,
        service,
        admission: Optional[AdmissionController] = None,
        max_budget: Optional[CostBudget] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.service = service
        self.admission = admission if admission is not None else NullAdmission()
        self.max_budget = max_budget
        pool = workers or getattr(self.admission, "max_inflight", None) or 8
        self._executor = ThreadPoolExecutor(
            max_workers=pool, thread_name_prefix="serve-worker"
        )
        self.metrics = service.metrics

    def close(self) -> None:
        self._executor.shutdown(wait=False)

    # -- routing -----------------------------------------------------------------

    async def handle(
        self, method: str, path: str, params: dict, headers: dict, body: bytes
    ) -> Response:
        """Dispatch one parsed request; never raises (errors become
        structured JSON responses).

        Work-bearing routes open the ``serve.request`` root span here —
        on the event loop, *before* admission — so the stitched trace
        covers the queue wait, the worker-pool hop, and everything the
        engine fans out to.  An incoming ``traceparent`` header continues
        the caller's trace (its sampling decision is honored verbatim);
        traced responses answer with an ``X-Trace-Id`` header.
        """
        self.metrics.incr("serve.requests")
        started = time.perf_counter()
        handle = NOOP
        if method == "POST" and path in _WORK_ROUTES:
            handle = self.service.tracer.start(
                "serve.request",
                detail=f"{method} {path}",
                stats=self.service.stats,
                parent=SpanContext.from_header(headers.get("traceparent")),
            )
        with handle as root_span:
            try:
                response = await self._route(method, path, params, headers, body)
            except ServiceOverloaded as error:
                response = _json_response(
                    429,
                    {"error": str(error), **error.to_json()},
                    headers={"Retry-After": f"{error.retry_after_s:.3f}"},
                )
            except QueryBudgetExceeded as error:
                self.metrics.incr("serve.budget_rejections")
                response = _json_response(422, {"error": str(error), **error.to_json()})
            except ReproError as error:
                response = _json_response(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - the server must answer
                response = _json_response(500, {"error": f"internal error: {error}"})
            root_span.set("status", response.status)
        trace = handle.trace
        exemplar = None
        if trace is not None:
            exemplar = trace.hex_id
            response.headers.setdefault("X-Trace-Id", exemplar)
        self.metrics.observe(
            "serve.latency_seconds", time.perf_counter() - started, exemplar=exemplar
        )
        return response

    async def _route(self, method, path, params, headers, body) -> Response:
        if method == "GET":
            if path == "/metrics":
                return self._do_metrics(params, headers)
            if path == "/healthz":
                return self._do_healthz()
            if path == "/replication":
                return self._do_replication()
            if path == "/debug/traces":
                return self._do_traces()
            return _json_response(404, {"error": f"unknown path {path!r}"})
        if method != "POST":
            return _json_response(405, {"error": f"unsupported method {method}"})
        if path == "/query":
            return await self._do_query(params, body)
        if path == "/update":
            return await self._do_update(params, body)
        if path == "/explain":
            return await self._do_explain(params, body)
        return _json_response(404, {"error": f"unknown path {path!r}"})

    async def _offload(self, fn, *args):
        """Run blocking engine work on the worker pool under one
        admission slot (``/update`` and ``/explain``)."""
        async with _Admitted(self.admission):
            self._count_read("pool", "route")
            return await self._in_pool(fn, *args)

    async def _in_pool(self, fn, *args):
        """Run ``fn`` on the worker pool.  ``run_in_executor`` does *not*
        propagate context to pool threads, so the call runs under
        :func:`repro.obs.trace.wrap`: the captured context is restored
        there, inside a ``serve.worker`` span, and released again when
        the call returns."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, wrap(fn, "serve.worker"), *args
        )

    def _count_read(self, path: str, reason: str) -> None:
        """Where a work request ran (``inline`` or ``pool``) and why:
        ``serve.reads{path=,reason=}`` and the request span's attributes."""
        self.metrics.incr("serve.reads", labels={"path": path, "reason": reason})
        request_span = current_span()
        if request_span is not None:
            request_span.set("path", path)
            request_span.set("reason", reason)

    # -- read path ---------------------------------------------------------------

    def _read_target(self, text: str):
        """Where a read runs, decided on the loop without waiting:
        ``(target, route, reason)``.  ``reason`` is ``None`` when the read
        may be evaluated inline on ``target`` (a :class:`QueryService`);
        otherwise it names why the pool takes it, and ``target`` /
        ``route`` pin what was already decided (or are ``None``)."""
        service = self.service
        if len(text) > INLINE_BUDGET.max_node_visits and text not in service.plan_cache:
            return None, None, "budget"
        route = service.route(text)
        if route.shard is None:
            return None, route, "scatter"
        if route.analysis.ranges:
            return None, route, "budget"
        target = service.read_service(route.shard, wait=False)
        return target, route, None if target is not None else "catchup"

    def _evaluate_inline(self, target, text, mode, budget):
        """Evaluate a read on the loop: ``(result, None)``, or ``(None,
        reason)`` when the pool must run it — ``busy`` (no idle engine)
        or ``budget`` (it tripped :data:`INLINE_BUDGET`).  A trip of the
        request's own budget raises the error the pool would have."""
        with span("serve.inline"):
            try:
                result = target.execute(
                    text, mode=mode, budget=INLINE_BUDGET.clamped(budget), wait=False
                )
            except QueryBudgetExceeded as error:
                limit = _own_limit(budget, error.dimension)
                if limit is not None and error.spent > limit:
                    raise QueryBudgetExceeded(
                        error.dimension, limit, error.spent, budget
                    ) from None
                return None, "budget"
        return result, None if result is not None else "busy"

    def _pool_read(self, text, mode, budget, target, route):
        """Evaluate a read on a worker: on the pinned ``target``, or
        through the service with its ``route`` (routed afresh when
        ``None``)."""
        if target is not None:
            return target.execute(text, mode=mode, budget=budget)
        return self.service.execute(text, mode=mode, budget=budget, route=route)

    def _parse_budget(self, params: dict) -> Optional[CostBudget]:
        max_visits = params.get("max_visits")
        max_rows = params.get("max_rows")
        requested = None
        if max_visits is not None or max_rows is not None:
            try:
                requested = CostBudget(
                    max_node_visits=int(max_visits) if max_visits else None,
                    max_step_rows=int(max_rows) if max_rows else None,
                )
            except ValueError as error:
                raise ReproError(f"invalid budget parameter: {error}") from None
        if self.max_budget is not None:
            return self.max_budget.clamped(requested)
        return requested

    async def _do_query(self, params: dict, body: bytes) -> Response:
        text = _query_text(body)
        mode = params.get("mode")
        as_values = params.get("values") in ("1", "true", "yes")
        budget = self._parse_budget(params)

        def write(result) -> str:
            return "\n".join(result.values()) if as_values else result.to_xml()

        async with _Admitted(self.admission):
            path, reason = "inline", "point"
            target = route = None
            try:
                try:
                    target, route, why = self._read_target(text)
                    if why is None:
                        result, why = self._evaluate_inline(target, text, mode, budget)
                except RecursionError:  # the loop's stack is deeper than a worker's
                    why = "budget"
                if why is None and _written_inline(result):
                    body_text = write(result)
                elif why is None:
                    # Evaluated inline; an element or document answer is
                    # a subtree to write, which would stall every
                    # connection on the loop.
                    path, reason = "pool", "write"
                    body_text = await self._in_pool(write, result)
                else:
                    path, reason = "pool", why
                    body_text = await self._in_pool(
                        lambda: write(self._pool_read(text, mode, budget, target, route))
                    )
            finally:
                self._count_read(path, reason)
        return Response(200, body_text, "text/plain" if as_values else "application/xml")

    async def _do_explain(self, params: dict, body: bytes) -> Response:
        report = await self._offload(
            self.service.explain, _query_text(body), params.get("mode")
        )
        return _json_response(200, report)

    # -- write path --------------------------------------------------------------

    async def _do_update(self, params: dict, body: bytes) -> Response:
        from repro.updates.ops import op_from_json

        uri = params.get("uri")
        if uri is None:
            uris = self.service.uris()
            if len(uris) != 1:
                return _json_response(
                    400, {"error": "several documents loaded; pass ?uri=..."}
                )
            uri = uris[0]
        try:
            payload = json.loads(_decode(body))
            if not isinstance(payload, dict):
                raise ValueError("update body must be a JSON object")
        except ValueError as error:
            return _json_response(400, {"error": f"invalid JSON body: {error}"})

        result = await self._offload(
            lambda: self.service.update(uri, op_from_json(payload))
        )
        return _json_response(
            200,
            {
                "uri": uri,
                "version": result.store.version,
                "minted": [str(number) for number in result.minted],
                "removed": [str(number) for number in result.removed],
                "touched": sorted(
                    ".".join(path) for path in result.touched_paths
                ),
            },
        )

    # -- introspection -----------------------------------------------------------

    def _replica_sets(self) -> list[ReplicaSet]:
        return self.service.replica_sets or []

    def _do_replication(self) -> Response:
        sets = self._replica_sets()
        report = {
            "admission": self.admission.snapshot(),
            "replica_sets": [replica_set.snapshot() for replica_set in sets],
            "max_lag": max(
                (replica_set.lag() for replica_set in sets), default=0
            ),
        }
        return _json_response(200, report)

    def _do_healthz(self) -> Response:
        report = {
            "status": "ok",
            "documents": self.service.uris(),
            "shards": self.service.catalog.summary(),
        }
        sets = self._replica_sets()
        if sets:
            report["replicas"] = sum(len(replica_set.replicas) for replica_set in sets)
        return _json_response(200, report)

    def _do_traces(self) -> Response:
        tracer = self.service.tracer
        return _json_response(
            200,
            {
                "recent": [trace.to_dict() for trace in tracer.recent()],
                "slow": [trace.to_dict() for trace in tracer.slow()],
                "counts": tracer.counts(),
            },
        )

    def _do_metrics(self, params: dict, headers: dict) -> Response:
        service = self.service
        sets = self._replica_sets()
        accept = headers.get("accept", "")
        wants_text = (
            params.get("format") == "prometheus"
            or "text/plain" in accept
            or "openmetrics" in accept
        )
        if not wants_text:
            report = service.snapshot()
            report["admission"] = self.admission.snapshot()
            if sets:
                report["replication"] = [s.snapshot() for s in sets]
            return _json_response(200, report)
        from repro.obs.prometheus import render_prometheus

        gauges: dict = {
            "cache.plan.entries": len(service.plan_cache),
            "cache.view.entries": len(service.view_cache),
        }
        gauges.update(self.admission.gauges())
        if sets:
            gauges["serve.replica.lag"] = max(s.lag() for s in sets)
            labeled: dict[str, list] = {}
            for replica_set in sets:
                for name, rows in replica_set.gauges().items():
                    labeled.setdefault(name, []).extend(rows)
            gauges.update(labeled)
        body = render_prometheus(
            service.metrics, storage=service.stats, extra_gauges=gauges
        )
        return Response(200, body, "text/plain; version=0.0.4")


def build_serving(
    service,
    replicas: int = 0,
    max_lag: int = 0,
    catchup_batch: Optional[int] = None,
    max_inflight: int = 64,
    queue_limit: int = 128,
    queue_timeout_s: float = 0.5,
    max_budget: Optional[CostBudget] = None,
    workers: Optional[int] = None,
) -> ServingApp:
    """Assemble the serving tier around the sharded ``service``: one
    replica set per shard, an admission controller, and the app that
    routes through them."""
    if replicas > 0:
        service.attach_replicas([
            ReplicaSet(
                shard_service,
                count=replicas,
                max_lag=max_lag,
                catchup_batch=catchup_batch,
                label=f"shard{index}",
            )
            for index, shard_service in enumerate(service.services)
        ])
    admission = AdmissionController(
        max_inflight=max_inflight,
        queue_limit=queue_limit,
        queue_timeout_s=queue_timeout_s,
        metrics=service.metrics,
    )
    return ServingApp(
        service,
        admission=admission,
        max_budget=max_budget,
        workers=workers,
    )
