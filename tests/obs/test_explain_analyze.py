"""EXPLAIN ANALYZE acceptance: profiles match the plan and the stats.

The issue's bar: on an E2-style virtual-view query the profile's operator
set must equal the executed (fused) plan's step set, and the exclusive
storage costs must sum — to the unit — to the engine's ``StorageStats``
delta for the run.
"""

from __future__ import annotations

import dataclasses

from repro.obs.profile import (
    build_profile,
    navigation_split,
    operators,
    render_profile,
    totals,
)
from repro.query import ast
from repro.query.engine import Engine
from repro.query.eval import _fuse_descendant_steps
from repro.query.parser import parse_query
from repro.query.plan import step_label
from repro.workloads.books import books_document

#: E2-style: navigate a virtual view, then a value step per hit.
QUERY = (
    'for $t in virtualDoc("book.xml", "title { author { name } }")//title '
    "return <t>{$t/text()}</t>"
)


def _engine(books: int = 40) -> Engine:
    engine = Engine()
    engine.load("book.xml", books_document(books, seed=7))
    return engine


def _plan_step_labels(text: str) -> set[str]:
    """Every fused step of every path in the parsed query — what the
    evaluator will actually execute, via the same ``step_label``."""
    labels: set[str] = set()

    def walk(node) -> None:
        if isinstance(node, ast.PathExpr):
            for step in _fuse_descendant_steps(node.steps):
                labels.add(step_label(step))
        if dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                if dataclasses.is_dataclass(value):
                    walk(value)
                elif isinstance(value, tuple):
                    for item in value:
                        if dataclasses.is_dataclass(item):
                            walk(item)

    walk(parse_query(text))
    return labels


def test_operator_set_matches_the_fused_plan():
    engine = _engine()
    result, trace = engine.explain_analyze(QUERY)
    assert len(result) == 40
    profile = build_profile(trace)
    assert {row.detail for row in operators(profile)} == _plan_step_labels(QUERY)
    assert _plan_step_labels(QUERY) == {"descendant::title", "child::text()"}


def test_operator_rows_fold_loop_iterations_with_call_counts():
    engine = _engine()
    # A predicate keeps the path in the per-binding loop.
    looping = QUERY.replace("$t/text()", "$t/author[1]")
    result, trace = engine.explain_analyze(looping)
    by_detail = {row.detail: row for row in operators(build_profile(trace))}
    # One descendant expansion from the document, then one author step per
    # bound $t — three hundred spans would be three hundred rows unfolded.
    assert by_detail["descendant::title"].calls == 1
    assert by_detail["child::author"].calls == len(result)


def test_grouped_flwr_path_is_one_operator_row_over_every_binding():
    engine = _engine()
    result, trace = engine.explain_analyze(QUERY)
    by_detail = {row.detail: row for row in operators(build_profile(trace))}
    # $t/text() runs once over all forty bindings, set-at-a-time.
    row = by_detail["child::text()"]
    assert row.calls == 1
    assert row.attrs["items_in"] == row.attrs["items_out"] == len(result)
    assert row.attrs["kernel"] == "columnar"
    assert "reason" not in row.attrs


def test_exclusive_costs_sum_to_the_storage_stats_delta():
    engine = _engine()
    before = engine.stats.snapshot()
    _, trace = engine.explain_analyze(QUERY)
    after = engine.stats.snapshot()
    delta = {
        key: after[key] - before[key]
        for key in after
        if after[key] != before[key]
    }
    assert totals(build_profile(trace)) == delta  # additive, to the unit


def test_exclusive_costs_sum_exactly_with_page_reads_in_play():
    # Query evaluation itself is index-driven; real page reads come from
    # heap work — an update's splice on a cold buffer pool forces them,
    # and the attribution must still balance to the unit.
    from repro.obs.trace import Tracer
    from repro.pbn.number import Pbn
    from repro.updates.mutations import apply_op
    from repro.updates.ops import InsertSubtree

    engine = _engine()
    store = engine.store("book.xml")
    store.buffer_pool.clear()
    tracer = Tracer()
    handle = tracer.start("update", stats=engine.stats, force=True)
    before = engine.stats.snapshot()
    with handle:
        apply_op(
            store,
            InsertSubtree(
                parent=Pbn.parse("1"),
                fragment="<book><title>Traced vol. 41</title></book>",
            ),
        )
    after = engine.stats.snapshot()
    delta = {
        key: after[key] - before[key]
        for key in after
        if after[key] != before[key]
    }
    assert delta.get("page_reads", 0) > 0
    profile = build_profile(handle.trace)
    assert totals(profile) == delta
    assert "update.derive" in {node.name for node in profile.walk()}


def test_per_axis_step_counts_and_navigation_split():
    engine = _engine()
    result, trace = engine.explain_analyze(QUERY)
    profile = build_profile(trace)
    by_detail = {row.detail: row for row in operators(profile)}
    assert by_detail["descendant::title"].attrs["steps.virtual"] == 1
    assert by_detail["child::text()"].attrs["steps.virtual"] == len(result)
    assert navigation_split(profile) == {"steps.virtual": 1 + len(result)}


def test_profile_carries_the_parse_and_view_resolution_stages():
    engine = _engine()
    _, trace = engine.explain_analyze(QUERY)
    profile = build_profile(trace)
    names = {node.name for node in profile.walk()}
    assert {"query", "parse", "eval", "view.resolve", "algorithm1"} <= names


def test_render_profile_is_readable_and_footed():
    engine = _engine()
    _, trace = engine.explain_analyze(QUERY)
    text = render_profile(build_profile(trace))
    assert "step descendant::title" in text
    assert "total (exclusive costs sum):" in text
    assert "navigation split: steps.virtual=" in text


def test_indexed_and_tree_queries_split_their_own_way():
    engine = _engine()
    _, trace = engine.explain_analyze('doc("book.xml")//title', mode="indexed")
    assert set(navigation_split(build_profile(trace))) == {"steps.indexed"}
    _, trace = engine.explain_analyze('doc("book.xml")//title', mode="tree")
    assert set(navigation_split(build_profile(trace))) == {"steps.tree"}


def test_explain_analyze_composes_with_a_service_tracer():
    from repro.service import QueryService

    service = QueryService(pool_size=2)
    service.load("book.xml", books_document(10, seed=7))
    report = service.explain(QUERY)
    assert "plan:" in report["plan"]
    assert set(report["operators"]) == {
        "step descendant::title",
        "step child::text()",
    }
    assert report["summary"]["items"] == 10
    assert "total (exclusive costs sum):" in report["rendered"]
    # The forced trace is recorded even though the sample rate is 0.
    assert any(
        trace.root.name == "query" for trace in service.tracer.recent()
    )
