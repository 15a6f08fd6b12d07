"""Stitched-trace acceptance: one tree per served request.

The serving tier's distributed trace must arrive as ONE stitched tree —
admission wait, worker-pool offload, the scatter root, per-shard fan-out
spans, and the replica-or-primary read decisions — with parentage
decided at each hand-off, not at whichever thread ran first.  The
``traceparent`` carrier must continue a caller's trace (honoring its
sampling decision verbatim), a shed request must leave no active span
behind on the event loop or any worker thread, exclusive storage costs
on a served trace must still sum to the unit (the EXPLAIN ANALYZE
acceptance bar, now through the whole async stack).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.trace import (
    SpanContext,
    Tracer,
    current_span,
    format_id,
    mint_id,
)
from repro.serve.app import build_serving
from repro.shard.service import ShardedService
from repro.workloads.books import books_document

DOCS = 8
SHARDS = 4


def _xml(i: int) -> str:
    return f"<book id='{i}'><title>T{i}</title></book>"


def _union_count() -> str:
    union = " | ".join(f'doc("doc{i}.xml")//title' for i in range(DOCS))
    return f"count({union})"


@pytest.fixture
def served():
    sharded = ShardedService(shards=SHARDS, pool_size=2, trace_sample=1.0)
    for i in range(DOCS):
        sharded.load(f"doc{i}.xml", _xml(i), shard=i % SHARDS)
    app = build_serving(
        sharded, replicas=2, max_inflight=4, queue_limit=8, queue_timeout_s=2.0
    )
    yield app, sharded
    app.close()
    sharded.close()


def _post(app, body: str, headers: dict | None = None):
    return asyncio.run(
        app.handle(
            "POST", "/query", {"values": "1"}, headers or {}, body.encode("utf-8")
        )
    )


def _spans(node, name: str) -> list:
    """Every span named ``name`` in the tree."""
    found = [node] if node.name == name else []
    for child in node.children:
        found.extend(_spans(child, name))
    return found


def test_one_stitched_trace_covers_every_hop(served):
    app, sharded = served
    response = _post(app, _union_count())
    assert response.status == 200
    assert response.body == str(DOCS).encode("utf-8")

    traces = sharded.tracer.recent()
    assert len(traces) == 1  # ONE tree, not one per hop
    [trace] = traces
    assert response.headers["X-Trace-Id"] == trace.hex_id
    root = trace.root
    assert root.name == "serve.request"
    assert root.detail == "POST /query"
    assert root.attrs["status"] == 200

    # Parentage, hop by hop: admission wait and the worker offload are
    # the root's children (the wait happened on the event loop *before*
    # the pool hop); the scatter root sits inside the worker span.
    assert [child.name for child in root.children] == [
        "serve.admission", "serve.worker",
    ]
    admission = root.children[0]
    assert "queue_depth" in admission.attrs
    worker = root.children[1]
    [scatter] = _spans(worker, "scatter")
    assert scatter.attrs["shards"] == SHARDS

    # The fan-out: one forked span per shard, each with the shard's own
    # evaluation under it, all inside the single tree.
    shard_spans = _spans(scatter, "shard.scatter")
    assert len(shard_spans) == SHARDS
    assert sorted(span.detail for span in shard_spans) == [
        f"shard={i}" for i in range(SHARDS)
    ]
    for span in shard_spans:
        assert span.attrs["fork"] is True
        assert _spans(span, "query"), "shard evaluation must nest in its fork"

    # The read-routing decisions: one replica-or-primary pick per shard.
    reads = _spans(scatter, "replica.read")
    assert len(reads) == SHARDS
    for read in reads:
        assert read.attrs["target"] in ("replica", "primary")
        assert read.attrs["lag"] >= 0


def test_traceparent_carrier_continues_the_callers_trace(served):
    app, sharded = served
    carrier = SpanContext(trace_id=mint_id(), span_id=mint_id(), sampled=True)
    response = _post(app, _union_count(), {"traceparent": carrier.to_header()})
    assert response.status == 200
    assert response.headers["X-Trace-Id"] == format_id(carrier.trace_id)
    [trace] = sharded.tracer.recent()
    assert trace.trace_id == carrier.trace_id
    assert trace.parent_span_id == carrier.span_id
    # Adopted traces don't consume this tracer's sampling budget.
    assert sharded.tracer.counts()["sampled"] == 0


def test_unsampled_traceparent_records_nothing(served):
    app, sharded = served
    carrier = SpanContext(trace_id=mint_id(), span_id=mint_id(), sampled=False)
    response = _post(app, _union_count(), {"traceparent": carrier.to_header()})
    assert response.status == 200
    assert "X-Trace-Id" not in response.headers
    assert sharded.tracer.recent() == []


def test_malformed_traceparent_falls_back_to_local_sampling(served):
    app, sharded = served
    response = _post(app, _union_count(), {"traceparent": "garbage"})
    assert response.status == 200
    [trace] = sharded.tracer.recent()
    assert trace.parent_span_id == 0  # a locally-rooted trace
    assert response.headers["X-Trace-Id"] == trace.hex_id


def test_shed_request_leaves_no_active_span_anywhere(served):
    app, sharded = served

    async def shed() -> None:
        # Occupy every admission slot, then overflow the zero-patience
        # queue: the request must answer 429 from inside its trace.
        slots = [app.admission.slot() for _ in range(4)]
        for slot in slots:
            await slot.__aenter__()
        app.admission.queue_timeout_s = 0.0
        try:
            response = await app.handle(
                "POST", "/query", {}, {}, _union_count().encode("utf-8")
            )
            assert response.status == 429
            assert current_span() is None  # nothing open on the loop
        finally:
            app.admission.queue_timeout_s = 2.0
            for slot in slots:
                await slot.__aexit__(None, None, None)

    asyncio.run(shed())
    # The shed still traced (root + admission wait, no worker span) ...
    [trace] = sharded.tracer.recent()
    assert trace.root.attrs["status"] == 429
    assert [child.name for child in trace.root.children] == ["serve.admission"]
    # ... and no worker-pool thread kept an active span behind.
    probes = [app._executor.submit(current_span) for _ in range(4)]
    assert all(probe.result() is None for probe in probes)


def test_served_exclusive_costs_still_sum_to_the_unit():
    # The EXPLAIN ANALYZE acceptance bar, through the whole async stack:
    # on a single-threaded served request the per-span exclusive storage
    # costs must sum exactly to the engine's stats delta for the run.
    from repro.obs.profile import build_profile, totals

    service = ShardedService(shards=1, pool_size=1, trace_sample=1.0)
    service.load("book.xml", books_document(20, seed=7))
    app = build_serving(service, max_inflight=1, queue_limit=1)
    try:
        before = service.stats.snapshot()
        response = _post(app, 'count(doc("book.xml")//book)')
        after = service.stats.snapshot()
        assert response.status == 200
        delta = {
            key: after[key] - before[key]
            for key in after
            if after[key] != before[key]
        }
        [trace] = service.tracer.recent()
        assert trace.root.name == "serve.request"
        assert totals(build_profile(trace)) == delta  # additive, to the unit
    finally:
        app.close()


def test_answers_are_serialized_on_a_worker_thread():
    """``to_xml`` / ``values`` of an element answer must not run on the
    event loop (where it would stall every other connection): the read
    is evaluated inline, and the worker hands back text."""
    import threading

    from repro.xmlmodel.nodes import Element

    class StubResult:
        def __init__(self) -> None:
            self.threads: list = []
            self.unsettled = [Element("x")]  # an element answer

        def to_xml(self) -> str:
            self.threads.append(threading.current_thread())
            return "<x/>"

        def values(self) -> list:
            self.threads.append(threading.current_thread())
            return ["x"]

    result = StubResult()
    stub = ShardedService(shards=1, pool_size=1)
    stub.services[0].execute = lambda *args, **kwargs: result
    app = build_serving(stub, max_inflight=2, queue_limit=2)
    try:

        async def both():
            loop_thread = threading.current_thread()
            xml = await app.handle("POST", "/query", {}, {}, b"q")
            values = await app.handle("POST", "/query", {"values": "1"}, {}, b"q")
            return loop_thread, xml, values

        loop_thread, xml, values = asyncio.run(both())
    finally:
        app.close()
    assert (xml.status, xml.body) == (200, b"<x/>")
    assert (values.status, values.body) == (200, b"x")
    assert len(result.threads) == 2
    for thread in result.threads:
        assert thread is not loop_thread
        assert thread.name.startswith("serve-worker")


def test_serialization_time_lands_under_the_worker_span(served):
    """A ``virtualDoc`` union is mostly stitching: the ``result.to_xml``
    span (with the writer's counters) must sit inside ``serve.worker`` —
    inside the admission slot — not beside it on the loop."""
    app, sharded = served
    spec = "book { ** }"
    union = " | ".join(
        f'virtualDoc("doc{i}.xml", "{spec}")//book' for i in range(DOCS)
    )
    response = asyncio.run(
        app.handle("POST", "/query", {}, {}, union.encode("utf-8"))
    )
    assert response.status == 200
    assert response.body.decode("utf-8") == "".join(
        '<book id="%d"><title>T%d</title></book>' % (i, i) for i in range(DOCS)
    )
    [trace] = sharded.tracer.recent()
    assert [child.name for child in trace.root.children] == [
        "serve.admission", "serve.worker",
    ]
    worker = trace.root.children[1]
    [to_xml] = _spans(worker, "result.to_xml")
    assert to_xml.attrs["spliced_ranges"] == DOCS
    assert to_xml.attrs["constructed_elements"] == 0
    assert to_xml.attrs["bytes"] == len(response.body)
    assert 0.0 < to_xml.duration_s <= worker.duration_s
