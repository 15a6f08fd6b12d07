"""Concurrency stress: many threads hammering one QueryService produce
exactly the answers a serial run produces, and the locked metrics show no
lost updates.

The invariants checked at the end are the exact-accounting ones the
locked :class:`ServiceMetrics` exists for (``StorageStats`` stays
intentionally approximate under concurrency, see ``service/service.py``):

* ``service.queries`` and ``engine.queries`` both equal the number of
  executions issued;
* every execution either hit or missed the plan cache, and misses equal
  both the number of distinct query texts and ``engine.parses``
  (single-flight: no thread sneaks in a duplicate parse);
* every evaluation of a ``virtualDoc()`` call either hit or missed the
  view cache, and misses equal ``engine.views_built`` which equals the
  number of distinct (document, spec) pairs.
"""

from __future__ import annotations

import random
import threading

from repro.query.engine import Engine
from repro.service import QueryService
from repro.shard import ShardedService
from repro.workloads.books import books_document
from repro.workloads import queries as Q

THREADS = 8
ITERATIONS = 40

SPEC = Q.BOOKS_INVERT.spec

# (query text, number of virtualDoc() evaluations per execution)
WORKLOAD = [
    ('count(doc("a.xml")//book)', 0),
    ('doc("a.xml")//title/text()', 0),
    ('count(doc("b.xml")//author)', 0),
    (f'count(virtualDoc("a.xml", "{SPEC}")//author)', 1),
    (f'virtualDoc("a.xml", "{SPEC}")//title/author/name/text()', 1),
    (f'count(virtualDoc("b.xml", "{SPEC}")//title)', 1),
    ('virtualDoc("b.xml", "title { name }")//name/text()', 1),
    ("1 + 2 * 3", 0),
]


def _documents():
    return {
        "a.xml": books_document(25, seed=7),
        "b.xml": books_document(25, seed=11),
    }


def test_threads_match_serial_run_and_metrics_balance():
    service = QueryService(pool_size=4)
    for uri, document in _documents().items():
        service.load(uri, document)

    # Serial oracle through a plain single-threaded Engine.
    oracle = Engine()
    for uri, document in _documents().items():
        oracle.load(uri, document)
    expected = {text: oracle.execute(text).values() for text, _ in WORKLOAD}

    mismatches: list[str] = []
    errors: list[BaseException] = []
    virtual_evals = [0] * THREADS

    def worker(index: int) -> None:
        rng = random.Random(index)
        try:
            for _ in range(ITERATIONS):
                text, views = rng.choice(WORKLOAD)
                values = service.execute(text).values()
                if values != expected[text]:
                    mismatches.append(f"{text!r}: {values} != {expected[text]}")
                virtual_evals[index] += views
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors
    assert not mismatches, mismatches[:10]

    total = THREADS * ITERATIONS
    counter = service.metrics.counter
    assert counter("service.queries") == total
    assert counter("engine.queries") == total

    # Plan cache: every execution accounted for, one build per text.
    assert counter("cache.plan.hits") + counter("cache.plan.misses") == total
    assert counter("cache.plan.misses") == len(WORKLOAD)
    assert counter("engine.parses") == len(WORKLOAD)

    # View cache: every virtualDoc() evaluation accounted for, one
    # Algorithm 1 run per distinct (document, spec) pair.
    total_virtual = sum(virtual_evals)
    assert total_virtual > 0
    assert counter("cache.view.hits") + counter("cache.view.misses") == total_virtual
    distinct_views = 3  # (a, invert), (b, invert), (b, title{name})
    assert counter("cache.view.misses") == distinct_views
    assert counter("engine.views_built") == distinct_views

    # The latency histogram saw every query too.
    assert service.metrics.snapshot()["histograms"]["engine.query_seconds"][
        "count"
    ] == total


def test_batch_parallel_matches_serial_batch():
    """The thread-pooled batch path returns the same outcomes, in order,
    as a single-threaded batch of the same queries."""
    service = ShardedService(shards=1, pool_size=4)
    for uri, document in _documents().items():
        service.load(uri, document)
    queries = [text for text, _ in WORKLOAD] * 5
    serial = service.batch(queries, workers=1)
    parallel = service.batch(queries, workers=8)
    assert [r.values() for r in serial.outcomes] == [
        r.values() for r in parallel.outcomes
    ]
    service.close()
