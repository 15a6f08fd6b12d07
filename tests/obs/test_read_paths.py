"""Where each served request ran, three ways that must agree.

``serve.reads{path=inline|pool, reason=}`` in ``/metrics``, the
``path`` / ``reason`` attributes of each request's ``serve.request``
span, and the hop spans under it (``serve.inline`` for a read evaluated
on the event loop, ``serve.worker`` for work on the pool) describe the
same decisions.  A mix over a sharded, replicated collection drives
every reason, and the three views reconcile to the unit.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

from repro.serve.app import build_serving
from repro.shard.service import ShardedService
from repro.workloads.books import books_document
from repro.xmlmodel.serializer import serialize

DOCS = 4


def _mix() -> list[tuple[str, dict, str]]:
    point = [("/query", {"values": "1"}, f"count(doc('d{i}')//title)") for i in range(DOCS)]
    text = [("/query", {}, f"(doc('d{i}')//title)[1]/text()") for i in range(DOCS)]
    element = [("/query", {}, f"(doc('d{i}')//book)[2]") for i in range(2)]
    heavy = [("/query", {"values": "1"}, "count(doc('d0')//*)")]
    ranges = [("/query", {"values": "1"}, "count(1 to 10)")]
    union = [("/query", {}, "doc('d0')//title | doc('d1')//title")]
    update = [(
        "/update",
        {"uri": "d2"},
        json.dumps({"op": "replace", "target": "1.1.1.1", "text": "Renamed"}),
    )]
    after = [("/query", {"values": "1"}, "(doc('d2')//title)[1]/text()")]
    explain = [("/explain", {}, "count(doc('d3')//title)")]
    own = [("/query", {"max_visits": "5"}, "doc('d1')//title")]
    return point + text + element + heavy + ranges + union + update + after + explain + own


def test_read_counters_spans_and_hops_reconcile():
    sharded = ShardedService(shards=2, pool_size=2, trace_sample=1.0, trace_buffer=256)
    for index in range(DOCS):
        sharded.load(f"d{index}", serialize(books_document(300, seed=index)))
    app = build_serving(sharded, replicas=1)
    mix = _mix() * 2
    try:

        async def drive():
            return [
                await app.handle("POST", path, params, {}, body.encode())
                for path, params, body in mix
            ]

        responses = asyncio.run(drive())
    finally:
        app.close()
        sharded.close()
    statuses = Counter(response.status for response in responses)
    assert statuses == {200: len(mix) - 2, 422: 2}  # the two max_visits=5 reads

    counted = Counter()
    for name, labels, value in sharded.metrics.counters_structured():
        if name == "serve.reads":
            counted[labels["path"], labels["reason"]] = value
    # Every reason this collection can take shows up in the mix.
    assert set(counted) == {
        ("inline", "point"), ("pool", "write"), ("pool", "budget"),
        ("pool", "scatter"), ("pool", "catchup"), ("pool", "route"),
    }

    # (1) inline + pool = the work requests served; /query alone too.
    queries = sum(1 for path, _, _ in mix if path == "/query")
    assert sum(counted.values()) == len(mix)
    routed = sum(value for (_, reason), value in counted.items() if reason == "route")
    assert sum(counted.values()) - routed == queries

    # (2) one request trace per request, its root attributes = the counter.
    roots = [
        trace.root for trace in sharded.tracer.recent()
        if trace.root.name == "serve.request"
    ]
    assert len(roots) == len(mix)
    assert Counter((root.attrs["path"], root.attrs["reason"]) for root in roots) == counted

    # (3) the hop spans: an inline read has one serve.inline hop and no
    # worker hop; pool work has exactly one serve.worker hop, after an
    # inline attempt when it was evaluated (write) or tried (budget, busy)
    # on the loop first, with none when it was routed away up front.
    workers = inline = 0
    for root in roots:
        hops = Counter(child.name for child in root.children)
        workers += hops["serve.worker"]
        reason = root.attrs["reason"]
        if root.attrs["path"] == "inline":
            inline += hops["serve.inline"]
            assert hops["serve.inline"] == 1 and hops["serve.worker"] == 0
        else:
            assert hops["serve.worker"] == 1
            if reason == "write":
                assert hops["serve.inline"] == 1
            elif reason in ("scatter", "catchup", "route"):
                assert hops["serve.inline"] == 0
    assert inline == counted["inline", "point"]
    assert workers == sum(value for (path, _), value in counted.items() if path == "pool")
