"""Inline reads: which reads the serving tier answers on the event loop.

A read whose plan routes to one shard is evaluated on the loop under
``INLINE_BUDGET`` when an engine and the read target are free at once;
its answer is written there when it is atomics or text / attribute
values.  Everything else keeps the worker pool.  These tests pin each
branch of that rule and that no branch changes an answer's bytes or
status (``serve.reads{path=,reason=}`` says which branch ran).
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.serve.app import INLINE_BUDGET, ServingApp, build_serving
from repro.service.service import QueryService
from repro.shard.service import ShardedService
from repro.workloads.books import books_document
from repro.xmlmodel.serializer import serialize


def _handle(app, path: str, body: str, params: dict | None = None, method="POST"):
    return asyncio.run(app.handle(method, path, params or {}, {}, body.encode()))


def _reads(service) -> dict:
    """``serve.reads`` as ``{(path, reason): count}``."""
    return {
        (labels["path"], labels["reason"]): value
        for name, labels, value in service.metrics.counters_structured()
        if name == "serve.reads"
    }


def _names(span) -> list:
    return [child.name for child in span.children]


def _find(span, name: str) -> list:
    found = [span] if span.name == name else []
    for child in span.children:
        if not isinstance(child, dict):
            found.extend(_find(child, name))
    return found


@pytest.fixture
def books300():
    service = ShardedService(shards=1, pool_size=2, trace_sample=1.0)
    service.load("d", serialize(books_document(300, seed=3)))
    app = build_serving(service, max_inflight=4)
    yield app, service
    app.close()


# -- (a) the inline budget ----------------------------------------------------


def test_a_read_over_the_inline_budget_is_answered_by_the_pool(books300):
    app, service = books300
    query = "doc('d')//*"
    response = _handle(app, "/query", query)
    reference = QueryService(pool_size=1)
    reference.load("d", serialize(books_document(300, seed=3)))
    assert response.status == 200
    assert response.body == reference.execute(query).to_xml().encode()
    assert _reads(service) == {("pool", "budget"): 1}
    # The inline attempt tripped and the pool re-ran it: both are in the
    # one request trace, the attempt first.
    root = service.tracer.recent()[-1].root
    assert _names(root) == ["serve.admission", "serve.inline", "serve.worker"]
    assert root.attrs["path"] == "pool" and root.attrs["reason"] == "budget"
    [attempt] = _find(root, "serve.inline")
    [worker] = _find(root, "serve.worker")
    assert _find(attempt, "query") and _find(worker, "query")


def test_a_trip_of_the_requests_own_budget_is_a_422_and_not_rerun(books300):
    app, service = books300
    queries = service.metrics.counter("service.queries")
    response = _handle(app, "/query", "doc('d')//*", {"max_visits": "50"})
    assert response.status == 422
    report = json.loads(response.body)
    assert report["code"] == "budget_exceeded"
    assert (report["dimension"], report["limit"]) == ("node_visits", 50)
    assert report["budget"] == {"max_node_visits": 50, "max_step_rows": None}
    assert report["spent"] > 50
    # Answered from the inline attempt: one evaluation, no pool hop.
    assert service.metrics.counter("service.queries") == queries + 1
    assert _reads(service) == {("inline", "point"): 1}
    root = service.tracer.recent()[-1].root
    assert "serve.worker" not in _names(root)


def test_the_422_body_is_the_one_the_pool_answers(books300):
    """Same request, inline and forced onto the pool: same bytes."""
    app, service = books300
    params = {"max_visits": "50", "max_rows": "40"}
    inline = _handle(app, "/query", "doc('d')//book/title", params)
    assert _reads(service) == {("inline", "point"): 1}
    shard = service.services[0]
    shard.execute = _never_inline(shard.execute)
    pooled = _handle(app, "/query", "doc('d')//book/title", params)
    assert _reads(service)[("pool", "busy")] == 1
    assert (inline.status, inline.body) == (pooled.status, pooled.body)
    assert json.loads(inline.body)["dimension"] == "step_rows"


def test_a_point_read_runs_inline_and_writes_on_the_loop(books300):
    app, service = books300
    response = _handle(app, "/query", "count(doc('d')//title)", {"values": "1"})
    assert (response.status, response.body) == (200, b"300")
    text = _handle(app, "/query", "(doc('d')//title)[1]/text()")
    assert text.status == 200
    assert _reads(service) == {("inline", "point"): 2}
    root = service.tracer.recent()[-1].root
    # Evaluated in serve.inline; the text node written beside it.
    assert _names(root) == ["serve.admission", "serve.inline", "result.to_xml"]
    assert root.attrs["path"] == "inline"


def test_a_range_is_not_tried_inline(books300):
    """The meter counts step items; a range's length comes from the
    query, so no budget bounds it on the loop."""
    app, service = books300
    response = _handle(app, "/query", "count(1 to 5000)", {"values": "1"})
    assert (response.status, response.body) == (200, b"5000")
    assert _reads(service) == {("pool", "budget"): 1}
    assert "serve.inline" not in _names(service.tracer.recent()[-1].root)


def test_a_long_unparsed_text_is_parsed_on_the_pool(books300):
    app, service = books300
    padding = " " * INLINE_BUDGET.max_node_visits
    query = f"count(doc('d')//title){padding}"
    assert _handle(app, "/query", query, {"values": "1"}).body == b"300"
    assert _reads(service) == {("pool", "budget"): 1}
    # Once cached, the same text costs no parse and reads inline.
    assert _handle(app, "/query", query, {"values": "1"}).body == b"300"
    assert _reads(service)[("inline", "point")] == 1


def test_a_recursion_on_the_loop_is_answered_by_the_pool(books300):
    """The loop's stack is deeper than a worker's, so a read that runs
    out of it inline gets the pool's answer, whatever that is (the
    message names the frame the limit hit, so only the status is
    compared)."""
    app, service = books300
    chain = "1" + "+1" * 3000
    inline = _handle(app, "/query", chain, {"values": "1"})
    assert _reads(service) == {("pool", "budget"): 1}
    shard = service.services[0]
    shard.execute = _never_inline(shard.execute)
    pooled = _handle(app, "/query", chain, {"values": "1"})
    assert inline.status == pooled.status


def test_a_recursion_error_inline_falls_back_to_the_pool(books300):
    """An inline evaluation that raises ``RecursionError`` (stubbed: every
    engine raises it off the worker threads) is re-run on the pool: the
    answer is the service's, and the engine the attempt checked out is
    back in the pool."""
    app, service = books300
    query = "count(doc('d')//title)"
    expected = service.execute(query).to_xml().encode()
    shard = service.services[0]
    raised = []
    for engine in shard._engines:
        def off_the_pool(*args, _execute=engine.execute, **kwargs):
            if not threading.current_thread().name.startswith("serve-worker"):
                raised.append(threading.current_thread().name)
                raise RecursionError("maximum recursion depth exceeded")
            return _execute(*args, **kwargs)

        engine.execute = off_the_pool
    response = _handle(app, "/query", query)
    assert (response.status, response.body) == (200, expected)
    assert len(raised) == 1
    assert _reads(service) == {("pool", "budget"): 1}
    assert shard._idle.qsize() == shard.pool_size


def _never_inline(execute):
    def execute_on_pool(*args, wait=True, **kwargs):
        return execute(*args, wait=wait, **kwargs) if wait else None

    return execute_on_pool


# -- (b) never wait on the loop -----------------------------------------------


def test_a_read_finding_the_engine_busy_goes_to_the_pool():
    service = ShardedService(shards=1, pool_size=1)
    service.load("d", serialize(books_document(300, seed=3)))
    [engine] = service.services[0]._engines
    gate, holding = threading.Event(), threading.Event()
    execute = engine.execute

    def gated(*args, **kwargs):
        if threading.current_thread().name.startswith("serve-worker"):
            holding.set()
            assert gate.wait(10), "test gate never opened"
        return execute(*args, **kwargs)

    engine.execute = gated
    app = ServingApp(service)

    async def main():
        # Over the inline budget: the pool re-runs it and holds the engine.
        slow = asyncio.ensure_future(
            app.handle("POST", "/query", {"values": "1"}, {}, b"count(doc('d')//*)")
        )
        while not holding.is_set():
            await asyncio.sleep(0.005)
        point = asyncio.ensure_future(
            app.handle("POST", "/query", {"values": "1"}, {}, b"count(doc('d')//title)")
        )
        await asyncio.sleep(0.05)
        # The loop is free: /healthz answers while both reads wait.
        health = await app.handle("GET", "/healthz", {}, {}, b"")
        assert health.status == 200
        assert not point.done()
        gate.set()
        return await slow, await point

    try:
        slow, point = asyncio.run(main())
    finally:
        gate.set()
        app.close()
    everything = service.execute("count(doc('d')//*)").values()
    assert int(everything[0]) > INLINE_BUDGET.max_node_visits
    assert (slow.status, slow.body) == (200, everything[0].encode())
    assert (point.status, point.body) == (200, b"300")
    assert _reads(service) == {("pool", "budget"): 1, ("pool", "busy"): 1}


def test_a_replica_with_records_to_replay_is_read_on_the_pool():
    service = ShardedService(shards=1, pool_size=1, trace_sample=1.0)
    service.load("d", "<a><b>1</b></a>")
    app = build_serving(service, replicas=1)
    try:
        assert _handle(app, "/query", "count(doc('d')//b)", {"values": "1"}).body == b"1"
        update = {"op": "insert", "parent": "1", "fragment": "<b>2</b>"}
        assert _handle(app, "/update", json.dumps(update)).status == 200
        # The replica is one record behind: the pool replays it, then reads.
        assert _handle(app, "/query", "count(doc('d')//b)", {"values": "1"}).body == b"2"
        assert _handle(app, "/query", "count(doc('d')//b)", {"values": "1"}).body == b"2"
    finally:
        app.close()
    assert _reads(service) == {
        ("inline", "point"): 2, ("pool", "route"): 1, ("pool", "catchup"): 1,
    }
    catchup = service.tracer.recent()[-2].root
    [read] = _find(catchup, "replica.read")
    assert read.attrs["applied"] == 1 and read.attrs["target"] == "replica"


# -- (c) heavy work keeps the pool --------------------------------------------


def _record_threads(obj, name: str, threads: list) -> None:
    method = getattr(obj, name)

    def recorded(*args, **kwargs):
        threads.append((name, threading.current_thread().name))
        return method(*args, **kwargs)

    setattr(obj, name, recorded)


def test_scatter_update_and_explain_run_on_worker_threads():
    sharded = ShardedService(shards=2, pool_size=1)
    for index in range(2):
        sharded.load(f"d{index}", "<a><b>x</b></a>", shard=index)
    app = build_serving(sharded, replicas=1)
    threads: list = []
    for name in ("execute", "update", "explain"):
        _record_threads(sharded, name, threads)
    try:
        union = "count(doc('d0')//b | doc('d1')//b)"
        assert _handle(app, "/query", union, {"values": "1"}).body == b"2"
        update = {"op": "replace", "target": "1.1.1", "text": "y"}
        assert _handle(app, "/update", json.dumps(update), {"uri": "d0"}).status == 200
        assert _handle(app, "/explain", "doc('d1')//b").status == 200
    finally:
        app.close()
        sharded.close()
    assert [name for name, _ in threads] == ["execute", "update", "explain"]
    assert all(thread.startswith("serve-worker") for _, thread in threads)
    assert _reads(sharded) == {("pool", "scatter"): 1, ("pool", "route"): 2}


# -- (d) element answers are written on the pool ------------------------------


def test_a_document_answer_is_evaluated_inline_and_written_on_the_pool(books300):
    app, service = books300
    response = _handle(app, "/query", "doc('d')")
    assert response.status == 200
    assert response.body == service.execute("doc('d')").to_xml().encode()
    assert _reads(service) == {("pool", "write"): 1}
    root = service.tracer.recent()[-2].root  # the request's, not the reference's
    assert _names(root) == ["serve.admission", "serve.inline", "serve.worker"]
    [attempt] = _find(root, "serve.inline")
    [worker] = _find(root, "serve.worker")
    assert _find(attempt, "query") and not _find(attempt, "result.to_xml")
    assert _find(worker, "result.to_xml") and not _find(worker, "query")
