"""Deep documents under ``sql``: the first-copy order key is built by a
climb, not a recursion.

The sql accel sorts every instance of a view by
``VirtualNavigator._order_keys``; a node's key is its first-copy
parent's key plus its own token, one level per token.  On a chain of
600 nested ``<a>`` elements (two frames a level would pass the
interpreter's default recursion limit of 1,000) every query below must
answer under ``sql`` exactly as under ``indexed``.
"""

from __future__ import annotations

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
