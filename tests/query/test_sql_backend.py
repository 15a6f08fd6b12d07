"""Unit tests for the ``strategy=sql`` backend plumbing: accel caching
and invalidation, eviction, EXPLAIN ANALYZE / metrics labels, and the
decline-to-navigator fallbacks.  (Answer correctness is pinned by the
differential suites — ``tests/query/test_differential.py`` and
friends.)"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import QueryEvaluationError
from repro.obs.profile import build_profile, operators
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.service.metrics import ServiceMetrics
from repro.workloads.books import books_document
from repro.workloads.treegen import random_document, random_spec
from repro.dataguide.build import build_dataguide


def _engine() -> Engine:
    engine = Engine(metrics=ServiceMetrics())
    engine.load("book.xml", books_document(12, seed=4))
    return engine


def test_unknown_modes_are_refused():
    assert set(Evaluator.MODES) == {"tree", "indexed", "sql"}
    engine = _engine()
    for mode in Evaluator.MODES:
        assert engine.execute('count(doc("book.xml")//title)', mode=mode).values() == ["12"]
    with pytest.raises(QueryEvaluationError):
        engine.execute('doc("book.xml")//title', mode="bogus")


def test_accel_is_built_lazily_and_cached():
    engine = _engine()
    assert engine.metrics.counter("sql.accel.builds") == 0
    first = engine.execute('doc("book.xml")//title', mode="sql").values()
    second = engine.execute('doc("book.xml")//author/name', mode="sql").values()
    assert first and second
    # Two queries, one table: the accel is cached per (identity) view.
    assert engine.metrics.counter("sql.accel.builds") == 1
    assert engine.metrics.counter("navigator.sql.steps") > 0


def test_reload_invalidates_the_accel():
    engine = _engine()
    engine.execute('doc("book.xml")//title', mode="sql")
    stale = engine.sql_accel(engine.store("book.xml").view)
    engine.load("book.xml", "<data><book><title>Fresh</title></book></data>")
    values = engine.execute(
        'doc("book.xml")//title/text()', mode="sql"
    ).values()
    assert values == ["Fresh"]
    assert engine.metrics.counter("sql.accel.builds") == 2
    # attach() closed the replaced store's connection outright.
    with pytest.raises(sqlite3.ProgrammingError):
        stale.conn.execute("SELECT 1")


def test_eviction_bounds_the_cache_and_closes_connections(monkeypatch):
    monkeypatch.setattr(Engine, "SQL_ACCEL_CAPACITY", 2)
    engine = _engine()
    accels = []
    for index in range(3):
        uri = f"doc{index}.xml"
        engine.load(uri, books_document(3, seed=index))
        engine.execute(f'doc("{uri}")//title', mode="sql")
        accels.append(engine.sql_accel(engine.store(uri).view))
    assert len(engine._sql_accels) <= 2
    with pytest.raises(sqlite3.ProgrammingError):
        accels[0].conn.execute("SELECT 1")
    # The survivors still answer.
    assert engine.execute('doc("doc2.xml")//title', mode="sql").values()


def test_explain_analyze_rows_carry_sql_kernel():
    engine = _engine()
    before = engine.metrics.counter("navigator.sql.steps")
    _, trace = engine.explain_analyze(
        'doc("book.xml")//book/author[name]/name', mode="sql"
    )
    rows = operators(build_profile(trace))
    kernels = {row.detail: row.attrs.get("kernel") for row in rows}
    assert kernels, "expected step operators in the profile"
    # Predicate-free steps run through the accel before the columnar
    # kernels; a predicated step runs the per-item loop, each item's
    # axis step through the accel.
    assert kernels["child::name"] == "sql"
    assert kernels["child::author"] == "scalar"
    books = int(engine.execute('count(doc("book.xml")//book)').values()[0])
    assert engine.metrics.counter("navigator.sql.steps") - before >= books


def test_strategy_label_is_sql_even_for_virtual_queries():
    engine = _engine()
    engine.execute('doc("book.xml")//title', mode="sql")
    engine.execute(
        'virtualDoc("book.xml", "title { author { name } }")//title',
        mode="sql",
    )
    engine.execute('doc("book.xml")//title', mode="indexed")
    assert (
        engine.metrics.counter("engine.queries", labels={"strategy": "sql"})
        == 2
    )
    assert (
        engine.metrics.counter(
            "engine.queries", labels={"strategy": "indexed"}
        )
        == 1
    )


def test_virtual_accel_misses_are_cached():
    engine = _engine()
    vdoc = engine.virtual("book.xml", "title { author { name } }")
    accel = engine.sql_accel(vdoc)
    assert engine.sql_accel(vdoc) is accel
    assert engine.metrics.counter("sql.accel.builds") == 1


def test_every_view_answers_through_the_accel():
    """Every view gets an accel — its ``row`` rank is the first-copy
    order key, total on any view — and it answers as the virtual
    navigator does, on the views the Section 5 comparator cannot order."""
    for seed in range(40):
        document = random_document(seed, max_depth=4, max_children=3)
        engine = Engine(metrics=ServiceMetrics())
        engine.load("r.xml", document)
        spec = random_spec(
            build_dataguide(document), seed, max_roots=2, max_children=2,
            max_depth=3,
        )
        source = f'virtualDoc("r.xml", "{spec}")'
        for query in (f"{source}//*", f"{source}//*/..", f"count({source}//*)"):
            plain = engine.execute(query)
            relational = engine.execute(query, mode="sql")
            assert (plain.to_xml(), plain.values()) == (
                relational.to_xml(), relational.values()
            ), f"seed={seed} query={query!r}"
        assert engine.metrics.counter("sql.accel.builds") == 1, seed


def test_non_compilable_predicates_fall_back_and_agree():
    engine = _engine()
    query = 'doc("book.xml")//book[sum(price) > 20]/title'
    assert (
        engine.execute(query, mode="sql").values()
        == engine.execute(query, mode="tree").values()
    )


def test_batched_virtual_steps_engage_and_agree():
    """Multi-item virtual contexts route through the accel's batched
    ``step_many`` (one query over the scratch context table) and must
    agree item-for-item with the tree-strategy navigator."""
    engine = _engine()
    queries = [
        'virtualDoc("book.xml", "title { author { name } }")//title/author',
        'virtualDoc("book.xml", "title { author { name } }")//author/name',
        'virtualDoc("book.xml", "title { author { name } }")/title'
        "/descendant-or-self::node()",
        'virtualDoc("book.xml", "title { author { name } }")//title/@*',
    ]
    for query in queries:
        expected = engine.execute(query, mode="tree").values()
        assert engine.execute(query, mode="sql").values() == expected
    assert engine.metrics.counter("navigator.sql.batch_steps") > 0


def test_randomized_batched_steps_differential():
    """Random specs/documents: sql-mode answers with step_many enabled
    stay byte-identical to the virtual navigator's."""
    for seed in (7, 19, 42):
        engine = Engine(metrics=ServiceMetrics())
        document = random_document(seed, max_depth=4, max_children=4)
        engine.load("r.xml", document)
        guide = build_dataguide(document)
        spec = random_spec(guide, seed)
        source = f'virtualDoc("r.xml", "{spec}")'
        for path in ("//*", "//*/*", "/descendant-or-self::node()", "//*/@*"):
            query = source + path
            expected = engine.execute(query, mode="tree").values()
            assert engine.execute(query, mode="sql").values() == expected, query
