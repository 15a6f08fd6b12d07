"""E9 — value retrieval through the extant heap vs a rebuilt one.

Timings here are secondary; the logical I/O counters (attached as extra
info) are the result — ``python -m repro.bench e9`` prints the full table.
"""

import pytest

from repro.query.engine import Engine
from repro.transform.materialize import materialize_to_store
from repro.workloads.books import books_document
from repro.workloads import queries as Q


@pytest.fixture(scope="module")
def io_setup():
    engine = Engine(buffer_capacity=8)
    engine.load("book.xml", books_document(300, seed=9))
    vdoc = engine.virtual("book.xml", Q.BOOKS_INVERT.spec)
    return engine, vdoc


def test_virtual_value_retrieval_cold(benchmark, io_setup):
    engine, vdoc = io_setup
    titles = engine.execute(
        f'(virtualDoc("book.xml", "{Q.BOOKS_INVERT.spec}")//title)[position() <= 10]'
    )

    def run():
        engine.cold_caches()
        titles.to_xml()

    engine.reset_stats()
    benchmark(run)
    benchmark.extra_info["page_reads_per_round"] = engine.stats.page_reads
    benchmark.extra_info["page_writes"] = engine.stats.page_writes
    assert engine.stats.page_writes == 0


def test_materialize_then_value_retrieval(benchmark, io_setup):
    engine, vdoc = io_setup

    def run():
        store, _ = materialize_to_store(vdoc, "mat.xml", buffer_capacity=8)
        store.buffer_pool.clear()
        mat_engine = Engine()
        mat_engine._stores["mat.xml"] = store
        mat_engine._store_by_document[id(store.document)] = store
        titles = mat_engine.execute('(doc("mat.xml")//title)[position() <= 10]')
        for node in titles:
            store.value_of(node.pbn)
        return store

    store = benchmark(run)
    benchmark.extra_info["heap_pages_written"] = store.heap.page_count
    assert store.heap.page_count > 0
