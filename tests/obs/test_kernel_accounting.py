"""Kernel accounting: which kernel ran each step, said the same way in
EXPLAIN ANALYZE, in the trace and in ``/metrics``.

Every step application leaves the evaluator's kernel table
(``Evaluator._route``) through one seam that tags its ``step`` span with
``kernel=`` / ``reason=`` and adds its context items to
``engine.kernel{kernel=,reason=}``.  Pinned here:

* a lone document's step — answered by the navigator's whole-column
  ``_document_step`` — says ``columnar`` (``cas`` when filtered), with
  the item counts the per-item loop reports for the same call;
* one traced query served over HTTP tells one story three ways: the
  EXPLAIN ANALYZE operator rows, the trace's ``step`` spans and the
  ``/metrics`` delta agree on kernel, reason and ``items_in``;
* set operators the same way: each ``setop`` span's ``items_in`` is
  what ``engine.order`` counted for it — one key pass per operator,
  over any view.
"""

from __future__ import annotations

import json
import urllib.request
from collections import Counter

import pytest

from repro.obs.profile import build_profile, operators
from repro.obs.trace import Tracer
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.query.joins import NO_KERNEL
from repro.service import QueryService
from repro.shard import ShardedService
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from tests.conftest import served
from tests.service.test_obs_smoke import parse_prometheus

SOURCES = {
    "stored": 'doc("book.xml")',
    "virtual": 'virtualDoc("book.xml", "title { author { name } }")',
}


def _rows(engine, query) -> dict:
    _, trace = engine.explain_analyze(query)
    return {row.detail: row for row in operators(build_profile(trace))}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_lone_document_step_says_the_kernel_that_answered_it(source, monkeypatch):
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=3))
    query = f"{SOURCES[source]}//author"
    row = _rows(engine, query)["descendant::author"]
    assert (row.attrs["kernel"], row.attrs.get("reason")) == ("columnar", None)
    # The same navigator call the per-item loop makes: same items, same
    # navigator step count, only the label differs.
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    loop = _rows(engine, query)["descendant::author"]
    assert loop.attrs["kernel"] == "scalar"
    labels = ("kernel", "reason")
    assert {k: v for k, v in row.attrs.items() if k not in labels} == {
        k: v for k, v in loop.attrs.items() if k not in labels
    }
    assert row.attrs["items_in"] == 1
    assert row.attrs["items_out"] == len(engine.execute(query)) > 0
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)

    filtered = _rows(engine, f'{SOURCES[source]}//author[name >= "M"]')
    row = filtered["descendant::author"]
    assert (row.attrs["kernel"], row.attrs.get("reason")) == ("cas", None)
    assert row.attrs["items_in"] == 1


def test_count_from_a_virtual_root_still_declines_its_bounds_form():
    seen = []

    class _Metrics:
        def incr(self, name, value=1, labels=None):
            seen.append((name, dict(labels or {}), value))

        def observe(self, *args, **kwargs):
            pass

    engine = Engine()
    engine.load("book.xml", books_document(12, seed=3))
    engine.metrics = _Metrics()
    assert engine.execute(f'count({SOURCES["virtual"]}/title)').values() == ["12"]
    assert engine.execute(f'count({SOURCES["stored"]}//book)').values() == ["12"]
    kernels = [labels["kernel"] for name, labels, _ in seen if name == "engine.kernel"]
    # a virtual root has no run bounds: the step materializes, on the
    # navigator's document step; a stored root counts by bounds
    assert kernels == ["columnar", "prefix-sum"]


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=15) as response:
        return response.read().decode()


def _post(url: str, body: str) -> str:
    with urllib.request.urlopen(url, data=body.encode(), timeout=15) as response:
        return response.read().decode()


def _kernel_series(srv) -> Counter:
    samples = parse_prometheus(_get(srv.url("/metrics?format=prometheus")))
    return Counter(
        {
            (labels["kernel"], labels.get("reason")): value
            for labels, value in samples.get("repro_engine_kernel", ())
        }
    )


def _step_spans(span: dict):
    """``(label, span)`` for every ``step`` span below a trace's span."""
    for child in span.get("children", ()):
        if child.get("name") == "step":
            yield f"step {child['detail']}", child
        yield from _step_spans(child)


def _operator_rows(node: dict):
    """``(label, row)`` for every step row below an EXPLAIN profile node."""
    for child in node.get("children", ()):
        if child["operator"].startswith("step "):
            yield child["operator"], child
        yield from _operator_rows(child)


#: A grouped FLWR path (its ``count()`` on prefix sums), a CAS step, a
#: stored ``count()`` on prefix sums and a ``NO_KERNEL`` decline — each
#: under a label of its own, so every profile row folds one kernel.
QUERY = (
    '(for $b in doc("book.xml")//book '
    "return <r>{ count($b/author) }{ $b/title/text() }</r>), "
    'doc("book.xml")//name[. >= "M"], '
    'count(doc("book.xml")//title), '
    'doc("book.xml")//author/self::author[. >= "M"]'
)


def test_explain_rows_trace_spans_and_metrics_reconcile():
    service = ShardedService(shards=1, pool_size=1, tracer=Tracer(sample_rate=1.0))
    service.load("book.xml", books_document(10, seed=5))
    with served(service) as srv:
        before = _kernel_series(srv)
        _post(srv.url("/query"), QUERY)
        delta = _kernel_series(srv) - before
        traces = json.loads(_get(srv.url("/debug/traces")))
        explained = json.loads(_post(srv.url("/explain"), QUERY))

    [trace] = [
        entry
        for entry in traces["recent"]
        if any(True for _ in _step_spans(entry["root"]))
    ]
    # The trace's step spans, folded by label the way EXPLAIN ANALYZE
    # folds them (each label of this query sits under one parent).
    from_spans: dict = {}
    for label, step in _step_spans(trace["root"]):
        attrs = step["attrs"]
        entry = from_spans.setdefault(label, [set(), 0, 0])
        entry[0].add((attrs["kernel"], attrs.get("reason")))
        entry[1] += attrs["items_in"]
        entry[2] += 1
    rows = dict(_operator_rows(explained["profile"]))
    assert set(rows) == set(from_spans)
    by_kernel: Counter = Counter()
    for label, (kernels, items_in, calls) in from_spans.items():
        [kernel] = kernels  # one kernel per operator row
        attrs = rows[label]["attrs"]
        assert (attrs["kernel"], attrs.get("reason")) == kernel, label
        assert (attrs["items_in"], rows[label]["calls"]) == (items_in, calls), label
        by_kernel[kernel] += items_in
    assert by_kernel == delta

    # ... and the query exercised every kind of row it was written for.
    kernels = {label[5:]: kernel for label, (kernel, _, _) in from_spans.items()}
    assert kernels["descendant::book"] == {("columnar", None)}
    assert kernels["child::author"] == {("prefix-sum", None)}
    assert kernels["child::text()"] == {("columnar", None)}
    assert kernels["descendant::name"] == {("cas", None)}
    assert kernels["descendant::title"] == {("prefix-sum", None)}
    assert kernels["self::author"] == {("scalar", NO_KERNEL)}
    assert from_spans["step child::author"][2] == 1  # grouped: once, not per book


@pytest.mark.parametrize("sample_rate", [1.0, 0.5])
def test_explain_answers_whatever_the_request_sampling(sample_rate):
    # A traced request runs EXPLAIN ANALYZE as a child span of its own
    # trace, and the profile is that span's subtree; a request sampled
    # out (every other one at 0.5) still gets a forced trace of its own.
    # Either used to leave the engine without a trace to profile (500).
    untraced = QueryService(pool_size=1)
    untraced.load("book.xml", books_document(10, seed=5))
    expected = untraced.explain(QUERY)["operators"]
    assert expected
    service = ShardedService(shards=1, pool_size=1, tracer=Tracer(sample_rate=sample_rate))
    service.load("book.xml", books_document(10, seed=5))
    with served(service) as srv:
        for _ in range(2):
            explained = json.loads(_post(srv.url("/explain"), QUERY))
            assert explained["operators"] == expected
    with service.tracer.start("http"):
        assert service.explain(QUERY)["operators"] == expected


def _order_count(srv) -> float:
    samples = parse_prometheus(_get(srv.url("/metrics?format=prometheus")))
    [(labels, value)] = samples.get("repro_engine_order", [({}, 0)])
    assert labels == {}  # no order / reason labels: every pass is by key
    return value


def _spans_named(span: dict, name: str):
    for child in span.get("children", ()):
        if child.get("name") == name:
            yield child
        yield from _spans_named(child, name)


#: A three-operand stored union (one n-ary operation), a virtual
#: ``except`` and a union of two types of one tree of the duplicating view
#: (the first-copy order key) — each one key pass.  No step of it runs the
#: per-item loop over several contexts, so only the set operators order.
SETOP_QUERY = (
    'doc("book.xml")//title | doc("book.xml")//name | doc("book.xml")//book, '
    'virtualDoc("book.xml", "title { author { name } }")//title except '
    'virtualDoc("book.xml", "title { author { name } }")//title[author/name >= "M"], '
    f'virtualDoc("dblp.xml", "{Q.DBLP_BY_AUTHOR.spec}")//article/title | '
    f'virtualDoc("dblp.xml", "{Q.DBLP_BY_AUTHOR.spec}")//article/year'
)


def test_setop_spans_and_the_order_counter_reconcile():
    service = ShardedService(shards=1, pool_size=1, tracer=Tracer(sample_rate=1.0))
    service.load("book.xml", books_document(10, seed=5))
    service.load("dblp.xml", dblp_document(8, seed=5))
    with served(service) as srv:
        before = _order_count(srv)
        _post(srv.url("/query"), SETOP_QUERY)
        delta = _order_count(srv) - before
        traces = json.loads(_get(srv.url("/debug/traces")))
    [trace] = [
        entry
        for entry in traces["recent"]
        if any(True for _ in _spans_named(entry["root"], "setop"))
    ]
    setops = list(_spans_named(trace["root"], "setop"))
    assert [(s["attrs"]["op"], s["attrs"]["operands"]) for s in setops] == [
        ("|", 3), ("except", 2), ("|", 2)
    ]
    assert not any("order" in s["attrs"] or "reason" in s["attrs"] for s in setops)
    assert all(s["attrs"]["items_out"] <= s["attrs"]["items_in"] for s in setops)
    from_spans = sum(setop["attrs"]["items_in"] for setop in setops)
    assert not any(
        step["attrs"]["kernel"] == "scalar" and step["attrs"]["items_in"] > 1
        for step in _spans_named(trace["root"], "step")
    )
    assert from_spans == delta > 0
