"""The Section 6 value writer against its oracle.

One equality carries the file: for every reachable virtual node ``v`` of a
view, ``"".join(write(v, [])) == serialize(vdoc.copy_subtree(v))`` — the
stitched value equals serializing a materialized copy of the subtree.  It is
asserted over hand-built cases, every view of the workload suites, generated
(document, spec) pairs, documents changed by durable updates, and images
re-opened from disk; ``Result.to_xml``, ``ShardResult.to_xml`` and
``VirtualDocument.value`` are further arms of the same equality.
"""

import random

import pytest

from repro.core.values import ValueStats, is_intact, write
from repro.core.virtual_document import VirtualDocument
from repro.dataguide.build import build_dataguide
from repro.query.engine import Engine
from repro.shard import ShardedService
from repro.storage.persist import load_store, save_store
from repro.storage.store import DocumentStore
from repro.updates.durable import DurableStore
from repro.vdataguide.grammar import parse_vdataguide
from repro.workloads import auction_document, books_document, dblp_document
from repro.workloads.books import paper_figure2
from repro.workloads.queries import ALL_WORKLOADS
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize

from tests.updates.test_replica_catchup import _random_op


def _view(source, spec) -> VirtualDocument:
    """A view over a freshly built store of ``source`` (XML text or a
    document), the way ``Engine.build_virtual`` makes one."""
    return _view_over(
        DocumentStore(parse_document(source) if isinstance(source, str) else source),
        spec,
    )


def _view_over(store: DocumentStore, spec) -> VirtualDocument:
    return VirtualDocument(
        store.document, parse_vdataguide(spec, store.guide), store=store
    )


def _value(vnode, stats=None) -> str:
    return "".join(write(vnode, [], stats))


def _reachable(vdoc) -> list:
    """Every reachable virtual node once (a node placed under several
    parents is the same position each time)."""
    return list(dict.fromkeys(vnode for vnode, _ in vdoc.iter_preorder()))


def assert_writer_matches_oracle(vdoc) -> int:
    vnodes = _reachable(vdoc)
    for vnode in vnodes:
        expected = serialize(vdoc.copy_subtree(vnode))
        assert _value(vnode) == expected, f"{vnode!r} of {vdoc.vguide.to_spec()!r}"
        assert vdoc.value(vnode) == expected
    return len(vnodes)


def _workload_document(name: str):
    if name.startswith("books"):
        return books_document(30, seed=11)
    if name.startswith("auction"):
        return auction_document(8, seed=12)
    return dblp_document(25, seed=13)


# -- hand-built cases ---------------------------------------------------------


def test_value_matches_paper_figure3():
    vdoc = _view(paper_figure2(), "title { author { name } }")
    title1 = vdoc.roots()[0]
    assert _value(title1) == "<title>X<author><name>C</name></author></title>"
    assert_writer_matches_oracle(vdoc)


def test_attributes_in_constructed_values():
    vdoc = _view(
        '<data><book id="b1"><title lang="en">T</title>'
        "<author>A</author></book></data>",
        "title { author }",
    )
    assert _value(vdoc.roots()[0]) == '<title lang="en">T<author>A</author></title>'
    assert_writer_matches_oracle(vdoc)


def test_escaped_text_and_attributes_survive_stitching():
    vdoc = _view(
        '<data><book><title q="a&quot;&lt;b">a &lt; b</title>'
        "<author>x&amp;y</author></book></data>",
        "title { author }",
    )
    assert _value(vdoc.roots()[0]) == (
        '<title q="a&quot;&lt;b">a &lt; b<author>x&amp;y</author></title>'
    )
    assert_writer_matches_oracle(vdoc)


def test_empty_elements():
    vdoc = _view(
        "<data><book><title/><author>A</author></book>"
        "<book><title/></book></data>",
        "title { author }",
    )
    first, second = vdoc.roots()
    assert _value(first) == "<title><author>A</author></title>"
    assert _value(second) == "<title/>"
    assert_writer_matches_oracle(vdoc)


def test_mixed_intact_below_constructed():
    vdoc = _view(books_document(5, seed=2), "data { book { author { ** } title } }")
    stats = ValueStats()
    root = vdoc.roots()[0]
    assert _value(root, stats) == serialize(vdoc.copy_subtree(root))
    # Authors are intact (their subtree shape survived), so they splice.
    assert stats.spliced_ranges > 0
    assert stats.constructed_elements > 0
    assert_writer_matches_oracle(vdoc)


def test_two_child_types_interleave_in_document_order():
    vdoc = _view(
        "<r><g><x>1</x><y>2</y><x>3</x><y>4</y></g></r>",
        "g { y x }",
    )
    assert _value(vdoc.roots()[0]) == "<g><x>1</x><y>2</y><x>3</x><y>4</y></g>"


def test_orphaned_instances_never_appear():
    """With ``title { author }`` an author whose book has no title occurs
    nowhere in the virtual document."""
    vdoc = _view(
        "<data><book><title>T</title><author>A</author></book>"
        "<book><author>ORPHAN</author></book></data>",
        "title { author }",
    )
    written = "".join(_value(root) for root in vdoc.roots())
    assert written == "<title>T<author>A</author></title>"
    assert assert_writer_matches_oracle(vdoc) == 4  # title, its text, author, its text


def test_non_linearizable_recursive_view():
    """The recursive self-inverting view of the columnar-kernel suite:
    virtual order has no sort key there, the writer needs none."""
    document = random_document(31, max_depth=5, max_children=4)
    spec = random_spec(build_dataguide(document), 1031)
    assert assert_writer_matches_oracle(_view(document, spec)) > 0


def test_unattached_node_is_rejected():
    from repro.core.virtual_document import VNode

    vdoc = _view(paper_figure2(), "title")
    root = vdoc.roots()[0]
    with pytest.raises(ValueError):
        write(VNode(root.vtype, root.node), [])


def test_store_must_hold_the_views_document():
    store = DocumentStore(books_document(2, seed=4))
    other = books_document(2, seed=5)
    with pytest.raises(ValueError):
        VirtualDocument(other, parse_vdataguide("title", store.guide), store=store)


# -- ValueStats: what splicing buys -------------------------------------------


def test_intact_view_is_one_range_per_root():
    vdoc = _view(books_document(10, seed=1), "book { ** }")
    stats = ValueStats()
    books = vdoc.roots()
    assert is_intact(vdoc, books[0].vtype)
    for book in books:
        write(book, [], stats)
    assert stats.spliced_ranges == len(books) == 10
    assert stats.constructed_elements == 0


def test_restructured_view_constructs_down_to_the_intact_types():
    """``title { author { name } }`` where authors also carry an email:
    titles and authors are re-tagged (the email is pruned), names splice."""
    books = "".join(
        f"<book><title>T{i}</title>"
        + "".join(
            f"<author><name>N{i}.{j}</name><email>e{j}@x</email></author>"
            for j in range(i % 3 + 1)
        )
        + "</book>"
        for i in range(9)
    )
    vdoc = _view(f"<data>{books}</data>", "title { author { name } }")
    stats = ValueStats()
    for title in vdoc.roots():
        write(title, [], stats)
    placed = [vnode.vtype.name for vnode, _ in vdoc.iter_preorder()]
    assert not is_intact(vdoc, vdoc.roots()[0].vtype)
    assert stats.constructed_elements == placed.count("title") + placed.count("author")
    assert stats.spliced_ranges == placed.count("name") == 18


# -- every workload view, generated pairs -------------------------------------


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_every_workload_view(workload):
    vdoc = _view(_workload_document(workload.name), workload.spec)
    assert assert_writer_matches_oracle(vdoc) > 0


@pytest.mark.parametrize("seed", range(30))
def test_generated_document_and_spec(seed):
    document = random_document(seed, max_depth=4, max_children=3)
    spec = random_spec(build_dataguide(document), seed + 1000)
    assert_writer_matches_oracle(_view(document, spec))
    # A store-less view has no heap: intact subtrees serialize in place.
    assert_writer_matches_oracle(VirtualDocument.from_spec(document, spec))


# -- after durable updates, after re-opening an image -------------------------


@pytest.mark.parametrize("seed", [2, 19, 40])
def test_after_randomized_update_batch(tmp_path, seed):
    """Inserts (half of them before/after a sibling, so ordinals get
    careted), deletes and replaces through ``DurableStore``: the heap is
    spliced, never re-serialized, and must stay canonical."""
    rng = random.Random(seed)
    document = books_document(12, seed=seed)
    durable = DurableStore.create(str(tmp_path / "d"), document)
    try:
        for _ in range(30):
            durable.apply(_random_op(rng, durable.store))
        for spec in ("title { author { name } }", "data { book { author { ** } title } }", "book { ** }"):
            assert_writer_matches_oracle(_view_over(durable.store, spec))
        durable.checkpoint()
    finally:
        durable.close()
    reopened = DurableStore.open(str(tmp_path / "d"))
    try:
        assert_writer_matches_oracle(_view_over(reopened.store, "title { author { name } }"))
    finally:
        reopened.close()


@pytest.mark.parametrize("workload", ALL_WORKLOADS[:3], ids=lambda w: w.name)
def test_on_a_store_reopened_from_a_v2_image(tmp_path, workload):
    path = str(tmp_path / "image.vpbn")
    save_store(DocumentStore(_workload_document(workload.name)), path)
    assert_writer_matches_oracle(_view_over(load_store(path), workload.spec))


# -- the other arms: Result.to_xml, ShardResult.to_xml ------------------------


def _oracle_xml(items) -> str:
    return "".join(serialize(item._vdoc.copy_subtree(item)) for item in items)


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_result_to_xml(workload):
    engine = Engine()
    engine.load("w.xml", _workload_document(workload.name))
    result = engine.execute(f'virtualDoc("w.xml", "{workload.spec}")//*')
    assert len(result) > 0
    assert result.to_xml() == _oracle_xml(result.items)


@pytest.mark.parametrize("workers", ["thread", "process"])
def test_shard_result_to_xml(workers):
    spec = "title { author { name } }"
    uris = [f"b{i}.xml" for i in range(3)]
    union = " | ".join(f'virtualDoc("{uri}", "{spec}")//title' for uri in uris)
    engine = Engine()
    sharded = ShardedService(
        shards=2,
        pool_size=1,
        workers=workers,
        placement={uri: index % 2 for index, uri in enumerate(uris)},
    )
    try:
        for index, uri in enumerate(uris):
            text = serialize(books_document(6, seed=index))
            engine.load(uri, text)
            sharded.load(uri, text)
        expected = engine.execute(union)
        answer = sharded.execute(union)
        assert len(answer.shards) == 2
        assert answer.to_xml() == _oracle_xml(expected.items)
        assert answer.values() == expected.values()
    finally:
        sharded.close()
