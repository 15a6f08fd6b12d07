"""Loading a document and opening its image build the same store parts.

``load_store(save_store(s))`` must equal ``s`` part for part — heap
text, node-map keys, Type IDs, guide counts and numbers, postings, value
index items and the node -> Type ID map — for freshly loaded documents
and for a store derived by careted inserts and deletes (rational
components, a zero-count type, types added after load).
"""

from __future__ import annotations

import io

import pytest

from repro.pbn.number import Pbn
from repro.storage.persist import dump_store, parse_store
from repro.storage.store import DocumentStore
from repro.updates.mutations import apply_op, verify_store
from repro.updates.ops import DeleteSubtree, InsertSubtree
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.treegen import random_document
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


def _parts(store: DocumentStore) -> dict:
    by_key = store._node_by_key
    return {
        "heap": store.heap.read_all(),
        "keys": sorted(by_key),
        "types": [guide_type.path for guide_type in store.types_by_id],
        "guide": [
            (guide_type.path, guide_type.count, guide_type.pbn)
            for guide_type in store.guide.iter_types()
        ],
        "postings": {
            type_id: list(store.type_index.postings(type_id))
            for type_id in store.type_index.type_ids()
            if store.type_index.postings(type_id)
        },
        "values": list(store.value_index.items()),
        "type_of_node": {
            key: store._type_of_node[node] for key, node in by_key.items()
        },
    }


def _reopened(store: DocumentStore) -> DocumentStore:
    buffer = io.BytesIO()
    dump_store(store, buffer)
    buffer.seek(0)
    return parse_store(buffer)


def _assert_same_parts(store: DocumentStore) -> DocumentStore:
    opened = _reopened(store)
    assert _parts(opened) == _parts(store)
    # The opened node map runs in document order.
    assert list(opened._node_by_key) == sorted(store._node_by_key)
    verify_store(opened)
    return opened


def _reloaded(document) -> DocumentStore:
    """A store loaded from the document's text (unnumbered, as ingest
    sees a file)."""
    return DocumentStore(parse_document(serialize(document), document.uri))


@pytest.mark.parametrize(
    "document",
    [
        random_document(3, max_depth=6, max_children=4),
        random_document(11, max_depth=4, max_children=6, attribute_probability=0.6),
        books_document(40, seed=2),
        dblp_document(60, seed=5),
    ],
    ids=["treegen-3", "treegen-11", "books", "dblplike"],
)
def test_loaded_and_opened_stores_have_the_same_parts(document):
    store = _reloaded(document)
    assert list(store._node_by_key) == sorted(store._node_by_key)
    _assert_same_parts(store)


def test_prenumbered_document_keeps_its_numbers():
    document = books_document(10, seed=4)
    numbers = [node.pbn for node in document.root.iter_subtree()]
    store = DocumentStore(document)
    assert [node.pbn for node in document.root.iter_subtree()] == numbers
    assert _parts(store) == _parts(_reloaded(document))


def test_type_ids_follow_guide_preorder():
    # <c> (a child type of <b>) first appears after <d>: in order of first
    # instance the types are a, b, d, c; in guide preorder a, b, c, d.
    store = DocumentStore(parse_document("<a><b/><d/><b><c/></b></a>"))
    assert [t.dotted() for t in store.types_by_id] == ["a", "a.b", "a.b.c", "a.d"]
    assert list(store.guide.iter_types()) == store.types_by_id
    verify_store(store)
    _assert_same_parts(store)


def test_careted_store_opens_with_the_same_parts():
    store = DocumentStore(books_document(12, seed=7))
    steps = [
        # Before the first book: a rational component (1/2), new types.
        InsertSubtree(parent=Pbn(1), fragment='<shelf id="s"><label>x</label></shelf>', before=Pbn(1, 1)),
        # Between books 1.2 and 1.3: another rational.
        InsertSubtree(parent=Pbn(1), fragment="<book><title>T</title></book>", after=Pbn(1, 2)),
        # A new type under book, and a plain delete.
        InsertSubtree(parent=Pbn(1, 3), fragment="<note>n</note>"),
        DeleteSubtree(target=Pbn(1, 5)),
    ]
    for op in steps:
        store = apply_op(store, op).store
    # Delete the only <note>: its type stays, with count zero, and a type
    # made after it keeps its later guide number.
    note = next(n for n in store.document.root.iter_subtree() if n.name == "note")
    store = apply_op(store, DeleteSubtree(target=note.pbn)).store
    store = apply_op(store, InsertSubtree(parent=Pbn(1, 4), fragment="<price>9</price>")).store
    verify_store(store)
    book_types = [t.name for t in store.guide.lookup_path(("data", "book")).children]
    assert book_types.index("note") < book_types.index("price")
    assert store.guide.lookup_path(("data", "book", "note")).count == 0
    assert any(
        not isinstance(component, int)
        for key in store._node_by_key
        for component in key
    )
    opened = _assert_same_parts(store)
    # Opened, updated, reopened: still the same parts.
    updated = apply_op(opened, InsertSubtree(parent=Pbn(1, 2), fragment="<isbn>1</isbn>")).store
    _assert_same_parts(updated)
