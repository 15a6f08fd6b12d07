"""Tests for the baseline transformation strategies."""

from repro.core.virtual_document import VirtualDocument
from repro.query.engine import Engine
from repro.transform.materialize import materialize_to_store
from repro.transform.renumber import count_renumbered, renumber
from repro.transform.twopass import two_pass_pipeline
from repro.workloads.books import books_document, paper_figure2


def _vdoc(spec="title { author { name } }"):
    return VirtualDocument.from_spec(paper_figure2(), spec)


def test_materialize_to_store_is_queryable():
    store, cost = materialize_to_store(_vdoc(), "m.xml")
    engine = Engine()
    engine.attach("m.xml", store)
    result = engine.execute('doc("m.xml")//author/name/text()')
    assert result.values() == ["C", "D"]


def test_materialize_cost_counts_everything():
    store, cost = materialize_to_store(_vdoc(), "m.xml")
    # titles(2) + texts(2) + authors(2) + names(2) + name texts(2) = 10
    assert cost.nodes_built == 10
    assert cost.heap_chars == store.heap.length > 0
    assert cost.page_writes >= 1
    assert cost.seconds >= 0


def test_materialize_scales_with_data_not_query():
    small_store, small_cost = materialize_to_store(
        VirtualDocument.from_spec(books_document(10, seed=1), "title { author }"), "s"
    )
    big_store, big_cost = materialize_to_store(
        VirtualDocument.from_spec(books_document(100, seed=1), "title { author }"), "b"
    )
    assert big_cost.nodes_built > 5 * small_cost.nodes_built


def test_two_pass_pipeline_result():
    result, cost = two_pass_pipeline(
        _vdoc(), 'doc("t.xml")//name/text()', uri="t.xml"
    )
    assert result.values() == ["C", "D"]
    assert cost.text_chars > 0
    assert cost.total_seconds >= cost.transform_seconds


def test_two_pass_wraps_forests():
    # The title view is a forest; the pipeline must still round-trip.
    result, cost = two_pass_pipeline(
        _vdoc(), 'count(doc("t.xml")//title)', uri="t.xml"
    )
    assert result.items == [2]


def test_renumber_counts_nodes():
    document = paper_figure2()
    assert count_renumbered(document) == 19
    assert renumber(document) == 19
    # Renumbering is idempotent on an unchanged tree.
    first = document.root.children[0].pbn
    renumber(document)
    assert document.root.children[0].pbn == first
