"""Copy-on-write mutations: splice shapes, index maintenance, snapshots."""

from __future__ import annotations

import io

import pytest

from repro.errors import ReproError, StorageError, UpdateError
from repro.pbn.number import Pbn
from repro.storage.persist import dump_store, parse_store
from repro.storage.store import DocumentStore
from repro.updates.durable import DurableStore
from repro.updates.mutations import apply_op, verify_store
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


def _store(text: str = '<doc><a x="1">hello</a><b/><c>tail</c></doc>') -> DocumentStore:
    return DocumentStore(parse_document(text, "t.xml"))


def _apply(store, op):
    result = apply_op(store, op)
    verify_store(result.store)
    return result


def test_append_insert_mints_next_integer():
    store = _store()
    result = _apply(store, InsertSubtree(parent=Pbn.parse("1"), fragment="<d>x</d>"))
    assert [str(n) for n in result.minted] == ["1.4", "1.4.1"]
    assert result.store.heap.read_all() == (
        '<doc><a x="1">hello</a><b/><c>tail</c><d>x</d></doc>'
    )
    assert result.store.version == store.version + 1


def test_insert_before_first_and_after_mint_rationals():
    store = _store()
    before = _apply(
        store,
        InsertSubtree(parent=Pbn.parse("1"), fragment="<z/>", before=Pbn.parse("1.1")),
    )
    (minted,) = before.minted
    assert minted < Pbn.parse("1.1")
    assert Pbn.parse("1").is_prefix_of(minted)
    after = _apply(
        store,
        InsertSubtree(parent=Pbn.parse("1"), fragment="<z/>", after=Pbn.parse("1.1")),
    )
    (minted,) = after.minted
    assert Pbn.parse("1.1") < minted < Pbn.parse("1.2")
    assert after.store.heap.read_all() == (
        '<doc><a x="1">hello</a><z/><b/><c>tail</c></doc>'
    )


def test_insert_between_minted_neighbours_converges():
    """Repeated insertion at the same gap keeps minting fresh, ordered,
    never-colliding numbers (the careting substrate end to end)."""
    store = _store("<doc><l/><r/></doc>")
    left = Pbn.parse("1.1")
    seen = {left, Pbn.parse("1.2")}
    for _ in range(12):
        result = _apply(
            store, InsertSubtree(parent=Pbn.parse("1"), fragment="<m/>", after=left)
        )
        (minted,) = result.minted
        assert minted not in seen
        assert left < minted < Pbn.parse("1.2")
        seen.add(minted)
        store = result.store
        left = minted
    assert store.heap.read_all() == "<doc><l/>" + "<m/>" * 12 + "<r/></doc>"


def test_insert_into_self_closing_parent():
    store = _store()
    result = _apply(store, InsertSubtree(parent=Pbn.parse("1.2"), fragment="<k/>"))
    assert result.store.heap.read_all() == (
        '<doc><a x="1">hello</a><b><k/></b><c>tail</c></doc>'
    )
    assert [str(n) for n in result.minted] == ["1.2.1"]


def test_insert_rejects_position_before_attributes():
    store = _store()
    with pytest.raises(UpdateError):
        apply_op(
            store,
            InsertSubtree(
                parent=Pbn.parse("1.1"), fragment="<k/>", before=Pbn.parse("1.1.1")
            ),
        )


@pytest.mark.parametrize(
    "document, expected",
    [
        ('<a x="1"><b/></a>', '<a x="1"><c/><b/></a>'),  # parent with content
        ('<a x="1"/>', '<a x="1"><c/></a>'),  # self-closing parent
        ('<a w="0" x="1">t</a>', '<a w="0" x="1"><c/>t</a>'),  # before a text child
    ],
)
def test_insert_after_last_attribute_lands_in_content(tmp_path, document, expected):
    """``after=<attribute>`` makes the fragment the first content child;
    its splice point is the parent's content start, not the attribute's
    end inside the start tag.  Checked on the live version, through a v2
    image round trip, and through a WAL replay."""
    store = DocumentStore(parse_document(document, "t.xml"))
    last_attribute = [c for c in store.node(Pbn(1)).children if c.kind.value == "attribute"][-1]
    op = InsertSubtree(parent=Pbn(1), fragment="<c/>", after=last_attribute.pbn)
    derived = _apply(store, op).store
    assert derived.heap.read_all() == serialize(derived.document) == expected

    image = io.BytesIO()
    dump_store(derived, image)
    loaded = parse_store(io.BytesIO(image.getvalue()))
    verify_store(loaded)
    assert loaded.heap.read_all() == expected

    durable = DurableStore.create(str(tmp_path / "d"), parse_document(document, "t.xml"))
    durable.apply(op)
    durable.close()  # the image stays at seq 0: reopening replays the op
    reopened = DurableStore.open(str(tmp_path / "d"))
    assert reopened.recovery.replayed == 1
    verify_store(reopened.store)
    assert reopened.store.heap.read_all() == expected
    reopened.close()


def test_insert_after_inner_attribute_is_rejected():
    store = _store('<a w="0" x="1"><b/></a>')
    for position in ({"after": Pbn(1, 1)}, {"before": Pbn(1, 2)}):
        with pytest.raises(UpdateError):
            apply_op(store, InsertSubtree(parent=Pbn(1), fragment="<c/>", **position))


def test_insert_rejects_malformed_fragments():
    store = _store()
    with pytest.raises(ReproError):  # parser refuses a second root
        apply_op(store, InsertSubtree(parent=Pbn.parse("1"), fragment="<x/><y/>"))
    with pytest.raises(ReproError):
        apply_op(store, InsertSubtree(parent=Pbn.parse("1"), fragment="<x>"))


def test_insert_rejects_unknown_parent_and_sibling():
    store = _store()
    with pytest.raises(StorageError):
        apply_op(store, InsertSubtree(parent=Pbn.parse("9"), fragment="<x/>"))
    with pytest.raises(UpdateError):
        apply_op(
            store,
            InsertSubtree(
                parent=Pbn.parse("1"), fragment="<x/>", before=Pbn.parse("1.3.1")
            ),
        )


def test_delete_subtree_and_adjacent_text_survives():
    store = _store()
    result = _apply(store, DeleteSubtree(target=Pbn.parse("1.1")))
    assert result.store.heap.read_all() == "<doc><b/><c>tail</c></doc>"
    assert len(result.removed) == 3  # a, @x, its text
    assert result.store.node(Pbn.parse("1.3.1")).value == "tail"


def test_delete_attribute_removes_preceding_space():
    store = _store()
    result = _apply(store, DeleteSubtree(target=Pbn.parse("1.1.1")))
    assert result.store.heap.read_all() == "<doc><a>hello</a><b/><c>tail</c></doc>"


def test_delete_last_content_child_collapses_to_self_closing():
    store = _store()
    result = _apply(store, DeleteSubtree(target=Pbn.parse("1.3.1")))
    assert result.store.heap.read_all() == '<doc><a x="1">hello</a><b/><c/></doc>'


def test_delete_root_is_rejected():
    store = _store()
    with pytest.raises(UpdateError):
        apply_op(store, DeleteSubtree(target=Pbn.parse("1")))


def test_replace_text_escapes():
    store = _store()
    result = _apply(store, ReplaceText(target=Pbn.parse("1.1.2"), text="a < b & c"))
    assert result.store.heap.read_all() == (
        '<doc><a x="1">a &lt; b &amp; c</a><b/><c>tail</c></doc>'
    )
    assert result.store.node(Pbn.parse("1.1.2")).value == "a < b & c"


def test_replace_attribute_escapes_quotes():
    store = _store()
    result = _apply(store, ReplaceText(target=Pbn.parse("1.1.1"), text='say "hi"'))
    assert result.store.heap.read_all() == (
        '<doc><a x="say &quot;hi&quot;">hello</a><b/><c>tail</c></doc>'
    )


def test_replacing_a_text_with_nothing_deletes_it():
    store = _store('<doc><a x="1">hello</a><b/><c>tail<d/>end</c></doc>')
    result = _apply(store, ReplaceText(target=Pbn.parse("1.1.2"), text=""))
    # the last content child: the parent collapses, as a parse would read it
    assert result.store.heap.read_all() == '<doc><a x="1"/><b/><c>tail<d/>end</c></doc>'
    assert [str(n) for n in result.removed] == ["1.1.2"]
    with pytest.raises(StorageError):
        result.store.node(Pbn.parse("1.1.2"))
    result = _apply(result.store, ReplaceText(target=Pbn.parse("1.3.1"), text=""))
    assert result.store.heap.read_all() == '<doc><a x="1"/><b/><c><d/>end</c></doc>'
    reread = DocumentStore(parse_document(result.store.heap.read_all(), "t.xml"))
    assert serialize(result.store.document) == serialize(reread.document)
    assert [n.kind for n in result.store.node(Pbn.parse("1.3")).children] == [
        n.kind for n in reread.node(Pbn.parse("1.3")).children
    ]
    # an attribute keeps its empty value: a parse reads it back as it is
    result = _apply(result.store, ReplaceText(target=Pbn.parse("1.1.1"), text=""))
    assert result.store.heap.read_all() == '<doc><a x=""/><b/><c><d/>end</c></doc>'


def test_replace_rejects_elements():
    store = _store()
    with pytest.raises(UpdateError):
        apply_op(store, ReplaceText(target=Pbn.parse("1.2"), text="no"))


def test_old_version_is_untouched():
    store = _store()
    image = store.heap.read_all()
    nodes = dict(store._node_by_key)
    result = apply_op(store, DeleteSubtree(target=Pbn.parse("1.1")))
    result = apply_op(
        result.store, InsertSubtree(parent=Pbn.parse("1"), fragment="<d/>")
    )
    assert store.heap.read_all() == image
    assert store._node_by_key == nodes
    assert store.node(Pbn.parse("1.1")).tag == "a"
    verify_store(store)


def test_indexes_follow_the_mutation():
    store = _store()
    result = _apply(store, InsertSubtree(parent=Pbn.parse("1"), fragment="<d>new words</d>"))
    derived = result.store
    # value index serves the minted nodes' spans
    entry = derived.value_index.lookup(Pbn.parse("1.4"))
    assert derived.heap.read_all()[entry.start : entry.end] == "<d>new words</d>"
    # type index gained the new type's posting
    d_type = derived.guide.lookup_path(("doc", "d"))
    assert d_type is not None and d_type.count == 1
    # untouched type postings are shared with the base version by identity
    a_id = store.type_id(store.guide.lookup_path(("doc", "a")))
    d_a_id = derived.type_id(derived.guide.lookup_path(("doc", "a")))
    assert derived.type_index._postings[d_a_id] is store.type_index._postings[a_id]


def test_heap_pages_before_splice_are_shared():
    text = "<doc>" + "".join(f"<p>{i:04d}</p>" for i in range(600)) + "</doc>"
    store = DocumentStore(parse_document(text, "t.xml"), page_size=256)
    result = _apply(store, InsertSubtree(parent=Pbn.parse("1"), fragment="<q/>"))
    shared = result.store.heap.shared_page_prefix(store.heap)
    assert shared > 0.9 * store.heap.page_count


def _copied(old: DocumentStore, new: DocumentStore) -> int:
    """Nodes of ``new`` that are not ``old``'s object under the same number."""
    previous = old._node_by_key
    return sum(previous.get(key) is not node for key, node in new._node_by_key.items())


def test_an_update_copies_the_path_not_the_document():
    """On books(3000) (≈ 36k nodes) every op kind allocates at most the
    site's depth + 1 + the fragment's nodes; the rest of the new version
    is the previous version's nodes.  The ``update.derive`` span reports
    the same count as ``copied``, and the previous version reads and
    verifies exactly as before."""
    from repro.obs.trace import Tracer
    from repro.workloads.books import books_document

    fragment = '<note k="v">text<e/></note>'  # 4 nodes
    store = DocumentStore(books_document(3000, seed=2))
    book = store.node(Pbn(1, 1500))
    steps = [
        ("append", lambda s: InsertSubtree(parent=book.pbn, fragment=fragment), 4),
        ("before", lambda s: InsertSubtree(Pbn(1), fragment, before=Pbn(1, 1501)), 4),
        # into the self-closing <e/> of the first note
        ("self-closing", lambda s: InsertSubtree(
            s.node(Pbn(1, 1500, len(book.children) + 1)).children[-1].pbn, "<x/>"), 1),
        ("replace-text", lambda s: ReplaceText(Pbn(1, 1200, 1, 1), "changed"), 0),
        ("replace-attribute", lambda s: ReplaceText(
            s.node(Pbn(1, 1500, len(book.children) + 1, 1)).pbn, "w"), 0),
        ("delete-attribute", lambda s: DeleteSubtree(
            Pbn(1, 1500, len(book.children) + 1, 1)), 0),
        ("delete", lambda s: DeleteSubtree(Pbn(1, 2000, 2)), 0),
        ("delete-last-content", lambda s: DeleteSubtree(
            s.node(Pbn(1, 10)).children[-1].children[0].children[0].pbn), 0),
    ]
    tracer = Tracer()
    for kind, make, fragment_nodes in steps:
        op = make(store)
        image, nodes = store.heap.read_all(), dict(store._node_by_key)
        handle = tracer.start("update", force=True)
        with handle:
            result = apply_op(store, op)
        copied = _copied(store, result.store)
        site = result.minted[0] if result.minted else op.target
        assert copied <= len(site.components) + 1 + fragment_nodes, (kind, copied)
        assert result.copied == copied, kind
        (derive,) = handle.trace.root.children
        assert derive.name == "update.derive"
        assert derive.attrs["copied"] == copied, kind
        assert derive.attrs["shared"] == len(result.store._node_by_key) - copied, kind
        assert derive.attrs["shared"] > 35_000, kind
        # the previous version is exactly what it was
        assert store.heap.read_all() == image
        assert store._node_by_key == nodes
        assert all(store._node_by_key[key] is node for key, node in nodes.items())
        verify_store(store)
        store = result.store
    verify_store(store)
