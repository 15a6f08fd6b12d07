"""Unit tests for the value index, type index, and document store."""

import pytest

from repro.errors import StorageError
from repro.pbn.number import Pbn
from repro.dataguide.guide import DataGuide
from repro.storage.store import DocumentStore, index_tree
from repro.storage.type_index import TypeIndex
from repro.workloads.books import paper_figure2
from repro.xmlmodel.nodes import NodeKind
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


@pytest.fixture
def store():
    return DocumentStore(paper_figure2())


def test_spans_match_serialization():
    document = paper_figure2()
    indexed = index_tree(document.children, DataGuide(), [], {}, {})
    assert indexed.text == serialize(document)
    for start, end, _, _, content_start, content_end in indexed.entries:
        assert 0 <= start <= content_start <= content_end <= end <= len(indexed.text)


def test_value_of_element(store):
    # Paper Section 6: the first author's value.
    value = store.value_of(Pbn(1, 1, 2))
    assert value == "<author><name>C</name></author>"


def test_value_of_text(store):
    assert store.value_of(Pbn(1, 1, 2, 1, 1)) == "C"


def test_value_of_attribute():
    store = DocumentStore(parse_document('<a id="x&amp;y"><b/></a>'))
    assert store.value_of(Pbn(1, 1)) == 'id="x&amp;y"'


def test_value_of_unknown_number(store):
    with pytest.raises(StorageError):
        store.value_of(Pbn(9, 9))


def test_whole_document_value(store):
    assert store.value_of(Pbn(1)) == serialize(store.document)


def test_values_of_is_value_of_per_number_in_input_order():
    # small pages: spans cross page boundaries; numbers unsorted, repeated,
    # nested (an element and its own text) — and the empty-heap-end span
    from repro.workloads.books import books_document

    store = DocumentStore(books_document(20, seed=3), page_size=64)
    numbers = [node.pbn for node in store.document.iter_subtree() if node.pbn is not None]
    batch = numbers[::-3] + numbers[:5] + numbers[:2]
    before = store.stats.snapshot()
    values = store.values_of(batch)
    delta = {k: v - before[k] for k, v in store.stats.snapshot().items()}
    assert values == [store.value_of(number) for number in batch]
    assert delta["index_probes"] == len(batch)
    assert delta["bytes_read"] == sum(map(len, values))
    pages = {
        page
        for start, end in store.value_index.spans(batch)
        for page in range(start // 64, (end - 1) // 64 + 1)
    }
    assert delta["buffer_hits"] + delta["page_reads"] == len(pages)
    assert store.heap.read_ranges([(0, 0), (store.heap.length, store.heap.length)]) == ["", ""]
    with pytest.raises(StorageError):
        store.values_of([numbers[0], Pbn(9, 9)])
    with pytest.raises(StorageError):
        store.heap.read_ranges([(0, store.heap.length + 1)])


def test_node_lookup(store):
    node = store.node(Pbn(1, 2, 1))
    assert node.name == "title"
    assert store.node_by_components((1, 2, 1)) is node
    with pytest.raises(StorageError):
        store.node(Pbn(3))


def test_type_of_node(store):
    node = store.node(Pbn(1, 1, 2))
    assert store.type_of(node).dotted() == "data.book.author"
    foreign = parse_document("<x/>").root
    with pytest.raises(StorageError):
        store.type_of(foreign)


def test_type_ids_dense(store):
    ids = [store.type_id(t) for t in store.types_by_id]
    assert ids == list(range(len(store.types_by_id)))


def test_value_index_subtree(store):
    numbers = [str(n) for n, _ in store.value_index.subtree(Pbn(1, 1))]
    assert numbers[0] == "1.1"
    assert all(n.startswith("1.1") for n in numbers)
    assert "1.2" not in numbers


def test_value_index_entry_headers(store):
    entry = store.value_index.lookup(Pbn(1, 1, 2, 1, 1))
    assert entry.kind is NodeKind.TEXT
    guide_type = store.types_by_id[entry.type_id]
    assert guide_type.dotted() == "data.book.author.name.#text"


def test_value_index_get_missing(store):
    assert store.value_index.get(Pbn(7)) is None


def test_store_numbers_unnumbered_document():
    document = parse_document("<a><b/></a>")
    store = DocumentStore(document)
    assert document.root.pbn == Pbn(1)
    assert store.value_of(Pbn(1, 1)) == "<b/>"


def test_size_summary(store):
    summary = store.size_summary()
    # data + 2 books + 8 nodes per book (title/#text, author/name/#text,
    # publisher/location/#text) = 19.
    assert summary["nodes"] == 19
    assert summary["types"] == 10
    assert summary["heap_chars"] == len(serialize(store.document))
    assert summary["value_index_entries"] == 19


# -- type index ---------------------------------------------------------------


def test_type_index_prefix_range():
    index = TypeIndex()
    for components in [(1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 1)]:
        index.append(5, Pbn(*components))
    assert [str(n) for n in index.prefix_range(5, (1, 2))] == ["1.2.2", "1.2.3"]
    assert [str(n) for n in index.prefix_range(5, (3,))] == []


def test_type_index_counts():
    index = TypeIndex()
    index.append(1, Pbn(1))
    index.append(1, Pbn(2))
    assert index.count(1) == 2
    assert index.count(2) == 0
    assert len(index) == 2
    assert index.type_ids() == [1]
    assert [str(n) for n in index.numbers(1)] == ["1", "2"]


def test_store_type_index_document_order(store):
    author_type = store.guide.resolve_label("author")
    numbers = list(store.type_index.numbers(store.type_id(author_type)))
    assert [str(n) for n in numbers] == ["1.1.2", "1.2.2"]
