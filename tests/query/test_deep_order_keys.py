"""Deep documents under ``sql``: the first-copy order key is built by a
climb, not a recursion.

The sql accel sorts every instance of a view by
``VirtualNavigator._order_keys``; a node's key is its first-copy
parent's key plus its own token, one level per token.  On a chain of
600 nested ``<a>`` elements (two frames a level would pass the
interpreter's default recursion limit of 1,000) every query below must
answer under ``sql`` exactly as under ``indexed``, and the work a query
does grows linearly with the depth of the chain: each key is its
parent's key plus one level, and an ancestor walk stops at the first
ancestor it has already collected.
"""

from __future__ import annotations

import sys

import pytest

from repro.dataguide.guide import GuideType
from repro.query.engine import Engine

DEPTH = 600

QUERIES = [
    'count(doc("d")//a)',
    'count(virtualDoc("d", "a { ** }")//a)',
    'count(doc("d")//a[last()]/ancestor::a)',
]


@pytest.fixture(scope="module")
def engine():
    engine = Engine()
    engine.load("d", "<a>" * DEPTH + "</a>" * DEPTH)
    return engine


@pytest.mark.parametrize("query", QUERIES)
def test_sql_answers_a_deep_chain_as_indexed_does(engine, query):
    expected = engine.execute(query, mode="indexed").values()
    assert expected in (["600"], ["599"])
    assert engine.execute(query, mode="sql").values() == expected


def test_a_deep_chain_checks_each_cut_once(monkeypatch):
    """Whether a virtual type's chain is complete is decided once per
    type, top-down: one ``is_ancestor_of`` per level, not one per level
    per descendant (O(depth³) over a deep chain)."""
    calls = 0
    is_ancestor_of = GuideType.is_ancestor_of

    def counted(self, other):
        nonlocal calls
        calls += 1
        return is_ancestor_of(self, other)

    monkeypatch.setattr(GuideType, "is_ancestor_of", counted)
    engine = Engine()
    engine.load("d", "<a>" * DEPTH + "</a>" * DEPTH)
    query = 'count(doc("d")//a[last()]/ancestor::a)'
    assert engine.execute(query).values() == [str(DEPTH - 1)]
    assert calls <= 2 * DEPTH


def _calls(engine, query: str, mode: str) -> int:
    """Function calls, Python and builtin, made while ``query`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        engine.execute(query, mode=mode)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "query, mode, warm",
    [
        # the ancestor kernel, on a warm engine
        ('count(doc("d")//a[last()]/ancestor::a)', "indexed", True),
        # the first query under sql: every instance's order key and sql key
        ('count(doc("d")//a)', "sql", False),
    ],
)
def test_work_grows_linearly_with_the_depth(query, mode, warm):
    counts = []
    for depth in (DEPTH, 2 * DEPTH):
        engine = Engine()
        engine.load("d", "<a>" * depth + "</a>" * depth)
        if warm:
            engine.execute(query, mode=mode)
        counts.append(_calls(engine, query, mode))
    assert counts[1] <= 2.2 * counts[0], counts
