"""Long operator chains answer instead of running out of stack.

The parser builds ``a + b + c`` left-deep and a sign chain as nested
unary nodes, and accepts thousands of either.  The evaluator folds a
left-deep ``+``-family, ``and`` or ``or`` chain and a sign chain in one
loop, and every walk over a plan (source analysis, specialization, the
FLWR grouping search, the EXPLAIN rendering) keeps an explicit stack, so
each chain below answers through the engine, the sharded service and
``POST /query`` / ``POST /explain``.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.errors import QueryEvaluationError
from repro.query.engine import Engine
from repro.shard import ShardedService
from tests.conftest import served

TERMS = 5000

#: name -> (query, its value)
CHAINS = {
    "plus": ("1" + " + 1" * (TERMS - 1), "5000"),
    "and": (" and ".join(["1"] * TERMS), "true"),
    "or": (" or ".join(["0"] * (TERMS - 1) + ["1"]), "true"),
    "signs": ("-" * TERMS + "1", "1"),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_long_chain_evaluates(name):
    query, value = CHAINS[name]
    assert Engine().execute(query).values() == [value]


@pytest.mark.parametrize(
    "query, value",
    [
        ("1 - 2 - 3", "-4"),
        ("2 * 3 div 4 - 1", "0.5"),
        ("7 mod 4 * 2 + 1", "7"),
        ("- - 3", "3"),
        ("- + - 3", "3"),
        ("-(1 + 2) - 3", "-6"),
        ("() + 1 + 2", ""),
        ("0 or 0 or 1", "true"),
        ("1 and 1 and 0", "false"),
        ("1 and 1 or 0 and 0", "true"),
    ],
)
def test_a_folded_chain_answers_as_the_pairwise_operators(query, value):
    assert "".join(Engine().execute(query).values()) == value


def test_a_chain_evaluates_left_to_right_and_stops_where_it_is_decided():
    engine = Engine()
    assert engine.execute("0 or 0 or 1 or (1 div 0)").values() == ["true"]
    assert engine.execute("1 and 1 and 0 and (1 div 0)").values() == ["false"]
    for query in ("0 or (1 div 0) or 1", "1 and (1 div 0) and 0", "1 + 1 + (1 div 0)"):
        with pytest.raises(QueryEvaluationError, match="division by zero"):
            engine.execute(query)


def test_a_long_chain_explains():
    engine = Engine()
    plan = engine.explain(CHAINS["plus"][0])
    lines = plan.splitlines()
    assert lines[0] == "op '+'"  # one n-ary node, as the evaluator folds it
    assert lines[1:] == ["  literal 1"] * TERMS
    assert engine.explain("- - 1").splitlines() == ["unary '--'", "  literal 1"]


def test_long_chains_route_and_scatter_across_shards():
    sharded = ShardedService(shards=2, pool_size=1)
    try:
        sharded.load("a.xml", "<a><b/><b/></a>", shard=0)
        sharded.load("c.xml", "<a><b/></a>", shard=1)
        for query, value in CHAINS.values():
            assert sharded.execute(query).values() == [value]
        # A union chain over both shards: analysed, specialized per
        # shard and folded, one operand per document call.
        union = " | ".join(['doc("a.xml")//b', 'doc("c.xml")//b'] * (TERMS // 2))
        assert sharded.execute(f"count({union})").values() == ["3"]
        guarded = 'doc("a.xml")//b[' + " or ".join(["0"] * TERMS) + "]"
        assert sharded.execute(f"count({guarded})").values() == ["0"]
    finally:
        sharded.close()


def _post(handle, path: str, body: str):
    request = urllib.request.Request(
        handle.url(path), data=body.encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def test_long_chains_answer_200_over_http():
    service = ShardedService(shards=1, pool_size=1)
    try:
        with served(service) as handle:
            for query, value in CHAINS.values():
                assert _post(handle, "/query?values=1", query) == (200, value)
                status, body = _post(handle, "/explain", query)
                assert status == 200
                assert json.loads(body)["summary"]["items"] == 1
    finally:
        service.close()
