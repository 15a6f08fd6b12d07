"""Unit tests for VirtualDocument navigation and materialization."""

import pytest

from repro.core.virtual_document import VirtualDocument, VNode
from repro.pbn.number import Pbn
from repro.workloads.books import paper_figure2
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


@pytest.fixture
def figure2():
    return paper_figure2()


def _vdoc(document, spec):
    return VirtualDocument.from_spec(document, spec)


def test_materialize_matches_paper_figure3(figure2):
    vdoc = _vdoc(figure2, "title { author { name } }")
    assert serialize(vdoc.materialize()) == (
        "<title>X<author><name>C</name></author></title>"
        "<title>Y<author><name>D</name></author></title>"
    )


def test_roots_in_document_order(figure2):
    vdoc = _vdoc(figure2, "title { author }")
    roots = vdoc.roots()
    assert [str(r.node.pbn) for r in roots] == ["1.1.1", "1.2.1"]


def test_children_case3(figure2):
    vdoc = _vdoc(figure2, "title { author }")
    title1 = vdoc.roots()[0]
    children = vdoc.children(title1)
    # text X first (1.1.1.1), then author (1.1.2).
    assert [c.node.pbn for c in children] == [Pbn(1, 1, 1, 1), Pbn(1, 1, 2)]


def test_children_case2(figure2):
    vdoc = _vdoc(figure2, "name { author }")
    name1 = vdoc.roots()[0]
    kinds = [(c.node.name, str(c.node.pbn)) for c in vdoc.children(name1)]
    # author (the original ancestor, prefix number) sorts first, then the
    # name's text.
    assert kinds == [("author", "1.1.2"), ("#text", "1.1.2.1.1")]


def test_parents(figure2):
    vdoc = _vdoc(figure2, "title { author }")
    author1 = vdoc.children(vdoc.roots()[0])[1]
    assert author1.node.name == "author"
    parents = vdoc.parents(author1)
    assert [str(p.node.pbn) for p in parents] == ["1.1.1"]
    assert vdoc.parents(vdoc.roots()[0]) == []


def test_instances(figure2):
    vdoc = _vdoc(figure2, "title { author }")
    author_vtype = vdoc.vguide.roots[0].children[-1]
    assert author_vtype.name == "author"
    assert len(vdoc.instances(author_vtype)) == 2


def test_reachability_filters_orphans():
    # Second book has no title, so its author is unreachable in the view.
    document = parse_document(
        "<data><book><title>T</title><author>A1</author></book>"
        "<book><author>A2</author></book></data>"
    )
    vdoc = _vdoc(document, "title { author }")
    author_vtype = vdoc.vguide.roots[0].children[-1]
    assert len(vdoc.instances(author_vtype)) == 2
    reachable = vdoc.reachable_instances(author_vtype)
    assert [v.node.string_value() for v in reachable] == ["A1"]
    # Materialization agrees.
    assert "A2" not in serialize(vdoc.materialize())


def test_duplication_copies_node_under_each_parent():
    document = parse_document(
        "<data><book><title>T1</title><title>T2</title>"
        "<author>A</author></book></data>"
    )
    vdoc = _vdoc(document, "title { author }")
    text = serialize(vdoc.materialize())
    assert text.count("A") == 2  # the author appears under both titles
    _, provenance = vdoc.materialize_with_provenance()
    authors = [
        vnode for vnode in provenance.values() if vnode.node.name == "author"
    ]
    assert len(authors) == 2
    assert authors[0].node is authors[1].node  # one original node, two copies


def test_iter_preorder_matches_materialized(figure2):
    vdoc = _vdoc(figure2, "title { author { name } }")
    names = [vnode.node.name for vnode, _ in vdoc.iter_preorder()]
    assert names == [
        "title", "#text", "author", "name", "#text",
        "title", "#text", "author", "name", "#text",
    ]


def test_vnode_identity(figure2):
    vdoc = _vdoc(figure2, "title { author }")
    a = vdoc.roots()[0]
    b = VNode(a.vtype, a.node)
    assert a == b and hash(a) == hash(b)
    c = vdoc.roots()[1]
    assert a != c


def test_value_serializes_virtual_subtree(figure2):
    vdoc = _vdoc(figure2, "title { author { name } }")
    title1 = vdoc.roots()[0]
    assert vdoc.value(title1) == "<title>X<author><name>C</name></author></title>"


def test_copy_subtree_is_free_standing(figure2):
    vdoc = _vdoc(figure2, "title { author { name } }")
    copy = vdoc.copy_subtree(vdoc.roots()[0])
    assert copy.parent is None
    assert serialize(copy) == "<title>X<author><name>C</name></author></title>"


def test_attributes_preserved_in_materialization():
    document = parse_document(
        '<data><book id="b1"><title lang="en">T</title></book></data>'
    )
    vdoc = _vdoc(document, "title")
    assert serialize(vdoc.materialize()) == '<title lang="en">T</title>'


def test_unnumbered_document_is_numbered_automatically():
    document = parse_document("<data><book><title>T</title></book></data>")
    assert document.root.pbn is None
    vdoc = _vdoc(document, "title")
    assert document.root.pbn is not None
    assert len(vdoc.roots()) == 1


def test_forest_specs_group_by_root_type(figure2):
    vdoc = _vdoc(figure2, "title location")
    names = [r.node.name for r in vdoc.roots()]
    assert names == ["title", "title", "location", "location"]


# -- a view built over a store is a lens, not a second index ------------------


def test_view_borrows_postings_and_columns_by_identity():
    from repro.query.engine import Engine
    from repro.updates.mutations import apply_op
    from repro.updates.ops import ReplaceText
    from repro.workloads.books import books_document

    engine = Engine()
    store = engine.load("book.xml", books_document(20, seed=3))
    spec = "title { author { name } }"
    vdoc = engine.build_virtual("book.xml", spec)
    title, author = vdoc.vguide.roots[0], vdoc.vguide.roots[0].children[-1]
    assert author.name == "author"
    for vtype in (title, author):
        type_id = store.type_id(vtype.original)
        assert vdoc.rows(vtype.original)[0] is store.type_index.postings(type_id)
        assert vdoc.column(vtype.original) is store.type_index.column(type_id)

    # One title's text changes: the author type is untouched, so the next
    # version's view navigates the *previous* store's posting list.  Its
    # row-aligned node list is its own, over the very author nodes the
    # previous version holds (an update shares every node off its path).
    first_title = engine.execute('(doc("book.xml")//title/text())[1]')[0]
    new_store = apply_op(store, ReplaceText(first_title.pbn, "changed")).store
    engine.attach("book.xml", new_store)
    new_vdoc = engine.build_virtual("book.xml", spec)
    new_author = new_vdoc.vguide.roots[0].children[-1]
    author_id = store.type_id(author.original)
    assert new_vdoc.document is new_store.document
    assert new_vdoc.rows(new_author.original)[0] is store.type_index.postings(author_id)
    assert new_vdoc.rows(new_author.original)[1] is not vdoc.rows(author.original)[1]
    assert new_vdoc.rows(new_author.original)[1][0] is vdoc.rows(author.original)[1][0]


def test_build_virtual_allocates_nothing_for_untouched_types():
    from repro.query.engine import Engine
    from repro.workloads.books import books_document

    engine = Engine()
    store = engine.load("book.xml", books_document(500, seed=5))
    vdoc = engine.build_virtual("book.xml", "title { author { name } }")
    assert len(vdoc._rows) == 0  # building the view touched no type
    engine.view_cache.put(("book.xml", "title { author { name } }"), vdoc)
    result = engine.execute('virtualDoc("book.xml", "title { author { name } }")/title')
    assert len(result) == 500
    assert [guide_type.name for guide_type in vdoc._rows] == ["title"]
    assert len(vdoc._rows) < len(store.types_by_id)
