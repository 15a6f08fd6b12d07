"""Integration: every workload query gives the same answer via vPBN as via
the materialize-and-renumber baseline (distinct values for duplicating
transformations — see the duplication caveat in DESIGN.md)."""

import pytest

from repro.query.engine import Engine
from repro.transform.materialize import materialize_to_store
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.xmarklike import auction_document
from repro.workloads import queries as Q

_DATASETS = {
    "books-invert": lambda: books_document(25, seed=21),
    "books-case2": lambda: books_document(25, seed=21),
    "auction-flat": lambda: auction_document(30, seed=22),
    "auction-pair": lambda: auction_document(30, seed=22),
    "dblp-by-author": lambda: dblp_document(30, seed=23),
}


def _workload_cases():
    for workload in Q.ALL_WORKLOADS:
        for query_name in workload.queries:
            yield pytest.param(workload, query_name, id=f"{workload.name}-{query_name}")


@pytest.mark.parametrize("workload,query_name", list(_workload_cases()))
def test_virtual_matches_materialized(workload, query_name):
    document = _DATASETS[workload.name]()
    uri = "data.xml"
    engine = Engine()
    engine.load(uri, document)
    vdoc = engine.virtual(uri, workload.spec)

    mat_engine = Engine()
    store, _ = materialize_to_store(vdoc, "mat.xml")
    mat_engine.attach("mat.xml", store)

    template = workload.queries[query_name]
    virtual = engine.execute(
        Q.instantiate(template, Q.virtual_source(uri, workload.spec))
    )
    materialized = mat_engine.execute(
        Q.instantiate(template, Q.materialized_source("mat.xml"))
    )
    if workload.duplicating:
        assert sorted(set(virtual.values())) == sorted(set(materialized.values()))
    else:
        assert virtual.values() == materialized.values()


@pytest.mark.parametrize(
    "workload", Q.ALL_WORKLOADS, ids=[w.name for w in Q.ALL_WORKLOADS]
)
def test_virtual_matches_tree_mode(workload):
    """The indexed-virtual path agrees with itself under tree-mode engines
    (the virtual navigator is mode-independent; this guards the plumbing)."""
    document = _DATASETS[workload.name]()
    engine = Engine()
    engine.load("data.xml", document)
    for template in workload.queries.values():
        query = Q.instantiate(template, Q.virtual_source("data.xml", workload.spec))
        assert (
            engine.execute(query, mode="indexed").values()
            == engine.execute(query, mode="tree").values()
        )
