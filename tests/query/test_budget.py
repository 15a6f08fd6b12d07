"""Per-query cost budgets: the meter seam, structured rejection, and
budget threading through engine, service, and sharded service."""

from __future__ import annotations

import pytest

from repro.errors import QueryBudgetExceeded
from repro.query.budget import CostBudget, CostMeter
from repro.query.engine import Engine
from repro.service.service import QueryService
from repro.shard.service import ShardedService
from repro.workloads.books import books_document

DOC = "<a>" + "".join(f"<b i='{i}'>t{i}</b>" for i in range(20)) + "</a>"


def _engine() -> Engine:
    engine = Engine()
    engine.load("doc.xml", DOC)
    return engine


# -- the budget / meter objects --------------------------------------------------


def test_meter_charges_and_trips():
    meter = CostBudget(max_node_visits=10).meter()
    meter.charge_context(4)
    meter.charge_rows(6)  # exactly at the limit: fine
    with pytest.raises(QueryBudgetExceeded) as caught:
        meter.charge_context(1)
    error = caught.value
    assert error.dimension == "node_visits"
    assert error.limit == 10
    assert error.spent == 11
    assert error.to_json()["code"] == "budget_exceeded"


def test_step_rows_guard_is_per_step():
    meter = CostBudget(max_step_rows=5).meter()
    meter.charge_rows(5)
    meter.charge_rows(5)  # each step under the guard; totals don't trip it
    with pytest.raises(QueryBudgetExceeded) as caught:
        meter.charge_rows(6)
    assert caught.value.dimension == "step_rows"


def test_unlimited_budget_never_trips():
    meter = CostBudget().meter()
    meter.charge_context(10**6)
    meter.charge_rows(10**6)
    assert meter.node_visits == 2 * 10**6


def test_budget_validation():
    with pytest.raises(ValueError):
        CostBudget(max_node_visits=0)
    with pytest.raises(ValueError):
        CostBudget(max_step_rows=-1)


def test_clamped_tightens_never_loosens():
    ceiling = CostBudget(max_node_visits=100, max_step_rows=50)
    assert ceiling.clamped(None) is ceiling
    tightened = ceiling.clamped(CostBudget(max_node_visits=10))
    assert tightened.max_node_visits == 10
    assert tightened.max_step_rows == 50
    loosened = ceiling.clamped(CostBudget(max_node_visits=10**9))
    assert loosened.max_node_visits == 100


# -- the evaluator seam ----------------------------------------------------------


def test_engine_rejects_over_budget_query():
    engine = _engine()
    with pytest.raises(QueryBudgetExceeded) as caught:
        engine.execute("doc('doc.xml')//b", budget=CostBudget(max_node_visits=5))
    assert caught.value.spent > 5
    assert "not a timeout" in str(caught.value)


def test_engine_within_budget_succeeds():
    engine = _engine()
    result = engine.execute(
        "count(doc('doc.xml')//b)", budget=CostBudget(max_node_visits=10_000)
    )
    assert result.values() == ["20"]


def test_budget_applies_to_every_mode():
    for mode in ("tree", "indexed", "sql"):
        engine = _engine()
        with pytest.raises(QueryBudgetExceeded):
            engine.execute(
                "doc('doc.xml')//b",
                mode=mode,
                budget=CostBudget(max_node_visits=5),
            )


def test_budget_counts_predicate_work(monkeypatch):
    from repro.query.eval import Evaluator

    # Pin the scalar path: the CAS kernel answers @i = '3' without inner
    # steps (that is the point of it), so only scalar evaluation exhibits
    # the per-candidate predicate charges this test pins down.
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    engine = _engine()
    spent_plain = CostBudget(max_node_visits=10**9).meter()
    # Same query with and without a predicate: the predicate's inner
    # steps must be metered too (charged via the same seam).
    engine.execute("doc('doc.xml')//b", budget=None)
    with pytest.raises(QueryBudgetExceeded):
        engine.execute(
            "doc('doc.xml')//b[@i = '3']", budget=CostBudget(max_node_visits=25)
        )
    del spent_plain


def test_budget_meters_the_cas_kernel():
    # The CAS path is metered at the same seam: context items in, result
    # rows out.  A budget below the context fan-in still trips even when
    # the predicate itself is answered by range scans.
    engine = _engine()
    with pytest.raises(QueryBudgetExceeded):
        engine.execute(
            "doc('doc.xml')//b[@i = '3']", budget=CostBudget(max_node_visits=1)
        )


def test_budget_rejection_increments_metric():
    service = QueryService(pool_size=1)
    service.load("doc.xml", DOC)
    with pytest.raises(QueryBudgetExceeded):
        service.execute("doc('doc.xml')//b", budget=CostBudget(max_node_visits=3))
    counters = service.metrics.snapshot()["counters"]
    assert counters.get("engine.budget_rejections") == 1


# -- service / sharded threading -------------------------------------------------


def test_service_budget_enforced():
    service = QueryService(pool_size=1)
    service.load("doc.xml", DOC)
    with pytest.raises(QueryBudgetExceeded):
        service.execute("doc('doc.xml')//b", budget=CostBudget(max_node_visits=5))
    # The budget is per call: the next query runs under its own.
    result = service.execute(
        "count(doc('doc.xml')//b)", budget=CostBudget(max_node_visits=10_000)
    )
    assert result.values() == ["20"]
    assert service.execute("count(doc('doc.xml')//b)").values() == ["20"]


def test_sharded_routed_budget():
    sharded = ShardedService(shards=2, pool_size=1)
    sharded.load("doc.xml", DOC)
    with pytest.raises(QueryBudgetExceeded):
        sharded.execute("doc('doc.xml')//b", budget=CostBudget(max_node_visits=5))


def test_sharded_scatter_budget_is_per_shard():
    sharded = ShardedService(shards=2, pool_size=1)
    sharded.load("a.xml", books_document(10, seed=1), shard=0)
    sharded.load("b.xml", books_document(10, seed=2), shard=1)
    union = "doc('a.xml')//title | doc('b.xml')//title"
    with pytest.raises(QueryBudgetExceeded):
        sharded.execute(union, budget=CostBudget(max_node_visits=4))
    result = sharded.execute(union, budget=CostBudget(max_node_visits=10**6))
    assert len(result) == 20
