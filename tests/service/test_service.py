"""QueryService behavior: pooling, batch, warm-cache guarantees, metrics."""

from __future__ import annotations

import pytest

from repro.errors import QueryParseError
from repro.service import QueryService
from repro.shard import ShardedService
from repro.workloads.books import books_document
from repro.workloads import queries as Q

E2_STYLE_QUERY = Q.instantiate(
    Q.BOOKS_INVERT.queries["author-count"],
    Q.virtual_source("book.xml", Q.BOOKS_INVERT.spec),
)


@pytest.fixture
def service():
    service = QueryService(pool_size=2)
    service.load("book.xml", books_document(20, seed=42))
    return service


def test_execute_matches_plain_engine(service):
    from repro.query.engine import Engine

    engine = Engine()
    engine.load("book.xml", books_document(20, seed=42))
    for template in Q.BOOKS_INVERT.queries.values():
        query = Q.instantiate(
            template, Q.virtual_source("book.xml", Q.BOOKS_INVERT.spec)
        )
        assert service.execute(query).values() == engine.execute(query).values()


def test_warm_repeat_skips_parse_and_level_array_construction(service):
    """Acceptance: a warm-cache repeat of an E2-style virtual query hits
    both caches — no re-parse, no Algorithm 1 — proven by the counters."""
    first = service.execute(E2_STYLE_QUERY)
    assert service.metrics.counter("engine.parses") == 1
    assert service.metrics.counter("engine.views_built") == 1
    assert service.metrics.counter("cache.plan.misses") == 1
    assert service.metrics.counter("cache.view.misses") == 1

    for repeat in range(1, 4):
        warm = service.execute(E2_STYLE_QUERY)
        assert warm.values() == first.values()
        # The expensive stages did not run again...
        assert service.metrics.counter("engine.parses") == 1
        assert service.metrics.counter("engine.views_built") == 1
        # ...because the caches answered.
        assert service.metrics.counter("cache.plan.hits") == repeat
        assert service.metrics.counter("cache.view.hits") == repeat


def test_warm_prebuilds_a_view(service):
    view = service.warm("book.xml", Q.BOOKS_INVERT.spec)
    assert service.metrics.counter("engine.views_built") == 1
    service.execute(E2_STYLE_QUERY)
    assert service.metrics.counter("engine.views_built") == 1
    assert service.metrics.counter("cache.view.hits") == 1
    # The view handed back is the cached instance queries navigate.
    assert service.warm("book.xml", Q.BOOKS_INVERT.spec) is view


def test_batch_preserves_order_and_isolates_failures():
    service = ShardedService(shards=1, pool_size=2)
    service.load("book.xml", books_document(20, seed=42))
    queries = [
        'count(doc("book.xml")//book)',
        "this is ( not a query",
        "1 + 2",
    ]
    outcome = service.batch(queries)
    assert len(outcome) == 3
    assert outcome.outcomes[0].values() == ["20"]
    assert isinstance(outcome.outcomes[1], QueryParseError)
    assert outcome.outcomes[2].values() == ["3"]
    assert len(outcome.results) == 2
    assert len(outcome.errors) == 1
    assert outcome.elapsed_seconds > 0
    assert service.metrics.counter("service.batches") == 1
    service.close()


def test_pool_engines_share_stores_and_caches():
    service = QueryService(pool_size=3)
    store = service.load("book.xml", books_document(10, seed=1))
    for engine in service._engines:
        assert engine.store("book.xml") is store
        assert engine.plan_cache is service.plan_cache
        assert engine.view_cache is service.view_cache
        assert engine.stats is service.stats


def test_mode_override(service):
    indexed = service.execute('doc("book.xml")//title/text()', mode="indexed")
    tree = service.execute('doc("book.xml")//title/text()', mode="tree")
    assert indexed.values() == tree.values()


def test_snapshot_shape(service):
    service.execute('count(doc("book.xml")//book)')
    snapshot = service.snapshot()
    assert snapshot["counters"]["service.queries"] == 1
    assert "engine.query_seconds" in snapshot["histograms"]
    assert snapshot["caches"]["plan"]["capacity"] == 256
    assert 0.0 <= snapshot["caches"]["plan"]["hit_rate"] <= 1.0
    assert "page_reads" in snapshot["storage"]


def test_rejects_empty_pool():
    with pytest.raises(ValueError):
        QueryService(pool_size=0)


def test_unknown_uri_raises(service):
    from repro.errors import QueryEvaluationError

    with pytest.raises(QueryEvaluationError):
        service.store("nope.xml")


def test_navigator_metrics_are_threaded(service):
    service.execute(E2_STYLE_QUERY)
    assert service.metrics.counter("navigator.virtual.steps") > 0
    service.execute('doc("book.xml")//title', mode="indexed")
    assert service.metrics.counter("navigator.indexed.steps") > 0


def test_buffer_metrics_are_threaded(service):
    """The shared store's buffer pool reports into the service metrics:
    a cold read misses, an immediate re-read hits."""
    store = service.store("book.xml")
    number = store.document.root.pbn
    store.buffer_pool.clear()
    store.value_of(number)
    assert service.metrics.counter("buffer.misses") > 0
    misses = service.metrics.counter("buffer.misses")
    store.value_of(number)
    assert service.metrics.counter("buffer.hits") > 0
    assert service.metrics.counter("buffer.misses") == misses
