"""Cache correctness: no aliasing across documents or specs, sound
eviction, single-flight builds, and reload invalidation."""

from __future__ import annotations

import threading

import pytest

from repro.service import LRUCache, PlanCache, QueryService, ServiceMetrics, ViewCache
from repro.workloads.books import books_document


# -- the generic LRU ------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b
    assert sorted(cache.keys()) == ["a", "c"]
    assert cache.get("b") is None


def test_lru_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_lru_get_or_build_builds_once_per_key():
    cache = LRUCache(4)
    builds = []
    assert cache.get_or_build("k", lambda: builds.append(1) or "v") == "v"
    assert cache.get_or_build("k", lambda: builds.append(1) or "v") == "v"
    assert len(builds) == 1


def test_lru_build_failure_leaves_no_entry():
    cache = LRUCache(4)

    def explode():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.get_or_build("k", explode)
    assert "k" not in cache
    # The key is not poisoned: a later build succeeds.
    assert cache.get_or_build("k", lambda: 7) == 7


def test_lru_single_flight_under_concurrency():
    """Many threads missing one key run the builder exactly once."""
    cache = LRUCache(4, metrics=ServiceMetrics(), name="sf")
    builds = []
    gate = threading.Barrier(8)

    def build():
        builds.append(1)
        return "value"

    def worker(results):
        gate.wait()
        results.append(cache.get_or_build("k", build))

    results: list = []
    threads = [threading.Thread(target=worker, args=(results,)) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == ["value"] * 8
    assert len(builds) == 1
    metrics = cache.metrics
    assert metrics.counter("cache.sf.misses") == 1
    assert metrics.counter("cache.sf.hits") == 7


def test_lru_eviction_metrics():
    metrics = ServiceMetrics()
    cache = LRUCache(1, metrics=metrics, name="tiny")
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    assert metrics.counter("cache.tiny.evictions") == 1
    assert len(cache) == 1


# -- plan cache: same text, different documents ---------------------------------


def test_same_query_text_against_different_documents_does_not_alias():
    metrics = ServiceMetrics()
    service = QueryService(pool_size=1, metrics=metrics, plan_cache=PlanCache(8, metrics))
    service.load("a.xml", "<data><x>1</x><x>2</x></data>")
    service.load("b.xml", "<data><x>9</x></data>")
    # Distinct texts referencing each document share nothing.
    assert service.execute('doc("a.xml")//x/text()').values() == ["1", "2"]
    assert service.execute('doc("b.xml")//x/text()').values() == ["9"]
    # One cached plan evaluated against different documents via a
    # variable binding: the plan is document-independent (documents are
    # bound at evaluation time), so the hit must not leak a.xml's answer
    # into b.xml's.
    query = "count(doc($uri)//x)"
    assert service.execute(query, variables={"uri": "a.xml"}).values() == ["2"]
    assert service.execute(query, variables={"uri": "b.xml"}).values() == ["1"]
    assert service.metrics.counter("cache.plan.hits") >= 1


def test_plan_cache_hit_skips_reparse():
    service = QueryService(pool_size=1)
    service.load("a.xml", "<data><x>1</x></data>")
    query = 'doc("a.xml")//x/text()'
    service.execute(query)
    parses_after_first = service.metrics.counter("engine.parses")
    service.execute(query)
    service.execute(query)
    assert service.metrics.counter("engine.parses") == parses_after_first
    assert service.metrics.counter("cache.plan.hits") == 2


# -- view cache: keys carry both document and spec ------------------------------


def test_same_document_different_specs_do_not_alias():
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(5, seed=3))
    invert = service.execute(
        'virtualDoc("book.xml", "title { author { name } }")//title/author'
    )
    flat = service.execute(
        'virtualDoc("book.xml", "title { name }")//title/name'
    )
    assert service.metrics.counter("engine.views_built") == 2
    assert len(service.view_cache) == 2
    # The two views answer differently: author elements (wrapping their
    # name) vs bare name elements under titles.
    assert len(invert) > 0 and len(flat) > 0
    assert invert.to_xml().startswith("<author>")
    assert flat.to_xml().startswith("<name>")


def test_same_spec_different_documents_do_not_alias():
    service = QueryService(pool_size=1)
    service.load("a.xml", "<data><book><title>A</title></book></data>")
    service.load("b.xml", "<data><book><title>B</title></book></data>")
    spec = "title"
    a = service.execute(f'virtualDoc("a.xml", "{spec}")//title/text()').values()
    b = service.execute(f'virtualDoc("b.xml", "{spec}")//title/text()').values()
    assert a == ["A"]
    assert b == ["B"]
    assert service.metrics.counter("engine.views_built") == 2


def test_view_cache_eviction_keeps_answers_correct():
    metrics = ServiceMetrics()
    service = QueryService(pool_size=1, metrics=metrics, view_cache=ViewCache(1, metrics))
    service.load("book.xml", books_document(5, seed=3))
    q_invert = 'count(virtualDoc("book.xml", "title { author }")//author)'
    q_names = 'count(virtualDoc("book.xml", "title { name }")//name)'
    first_invert = service.execute(q_invert).values()
    first_names = service.execute(q_names).values()  # evicts the invert view
    assert service.metrics.counter("cache.view.evictions") >= 1
    # Thrash back and forth: every answer must match its first run.
    for _ in range(3):
        assert service.execute(q_invert).values() == first_invert
        assert service.execute(q_names).values() == first_names
    assert len(service.view_cache) == 1


def test_reload_invalidates_cached_views():
    service = QueryService(pool_size=1)
    service.load("a.xml", "<data><book><title>old</title></book></data>")
    query = 'virtualDoc("a.xml", "title")//title/text()'
    assert service.execute(query).values() == ["old"]
    service.load("a.xml", "<data><book><title>new</title></book></data>")
    assert service.execute(query).values() == ["new"]


def test_a_warm_view_hit_takes_the_cache_lock_once():
    """A hit on a view built over the held document reads no re-binding:
    one acquisition of the cache lock (the lookup's)."""
    from repro.query.engine import Engine

    engine = Engine()
    engine.load("book.xml", books_document(5, seed=1))
    engine.virtual("book.xml", "title { author }")
    cache = engine.view_cache
    acquisitions = []
    lock = cache._lock

    class CountingLock:
        def __enter__(self):
            acquisitions.append(1)
            return lock.__enter__()

        def __exit__(self, *exc):
            return lock.__exit__(*exc)

    cache._lock = CountingLock()
    engine.virtual("book.xml", "title { author }")
    assert len(acquisitions) == 1
