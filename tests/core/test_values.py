"""The Section 6 value writer against its oracle.

One equality carries the file: for every reachable virtual node ``v`` of a
view, ``"".join(write(v, [])) == serialize(vdoc.copy_subtree(v))`` — the
stitched value equals serializing a materialized copy of the subtree.  It is
asserted over hand-built cases, every view of the workload suites, generated
(document, spec) pairs, documents changed by durable updates, and images
re-opened from disk; ``Result.to_xml``, ``ShardResult.to_xml`` and
``VirtualDocument.value`` are further arms of the same equality.  A batch
(``write_batch`` over a run of one type, in any order, with repeats) is
the same equality item by item, at the same counters but one buffer-pool
request per page.
"""

import io
import random

import pytest

from repro.core.values import ValueStats, is_intact, write, write_batch
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
    return VirtualDocument(store, parse_vdataguide(spec, store.guide))


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


def test_an_emptied_text_keeps_its_element_open():
    """An empty text child — a document built in memory can hold one
    (``ReplaceText(t, "")`` deletes the text instead) — still gives the
    title content, so it is written ``<title></title>``, not
    ``<title/>``."""
    document = parse_document(
        "<data><book><title>T</title></book>"
        "<book><title>U</title><author>A</author></book></data>"
    )
    document.root.children[0].children[0].children[0].value = ""
    store = DocumentStore(document)
    vdoc = _view_over(store, "title { author }")
    assert write_batch(vdoc.roots(), []) == [
        "<title></title>",
        "<title>U<author>A</author></title>",
    ]
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
    # from_spec builds a second store over the (now numbered) document.
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


# -- batches: a run of one type written at a time -----------------------------


def assert_batches_match_oracle(vdoc, seed: int = 0) -> int:
    """``write_batch`` over each virtual type's reachable instances — in
    document order, then shuffled with repeated nodes — appends one part
    per node, equal to that node's oracle value.  Returns the number of
    types written."""
    by_type: dict = {}
    for vnode in _reachable(vdoc):
        by_type.setdefault(id(vnode.vtype), []).append(vnode)
    rng = random.Random(seed)
    for run in by_type.values():
        expected = {vnode: serialize(vdoc.copy_subtree(vnode)) for vnode in run}
        mixed = run + rng.sample(run, min(3, len(run)))
        rng.shuffle(mixed)
        for batch in (run, mixed):
            assert write_batch(batch, []) == [expected[v] for v in batch], (
                f"{batch[0]!r} of {vdoc.vguide.to_spec()!r}"
            )
    return len(by_type)


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_batches_over_every_workload_view(workload):
    vdoc = _view(_workload_document(workload.name), workload.spec)
    assert assert_batches_match_oracle(vdoc) > 1


@pytest.mark.parametrize("seed", range(30))
def test_batches_over_generated_pairs(seed):
    document = random_document(seed, max_depth=4, max_children=3)
    spec = random_spec(build_dataguide(document), seed + 1000)
    assert_batches_match_oracle(_view(document, spec), seed)
    assert_batches_match_oracle(VirtualDocument.from_spec(document, spec), seed)


@pytest.mark.parametrize("seed", [2, 19])
def test_batches_after_updates(tmp_path, seed):
    """Updated stores: pages re-based by ``ValueIndex.derive``, careted
    ordinals (raw columns) — then re-opened from their image."""
    from repro.updates.ops import InsertSubtree

    rng = random.Random(seed)
    durable = DurableStore.create(str(tmp_path / "d"), books_document(12, seed=seed))
    try:
        for _ in range(30):
            durable.apply(_random_op(rng, durable.store))
        for book in durable.store.document.root.children[:3]:
            first_author = next(c for c in book.children if c.name == "author")
            durable.apply(
                InsertSubtree(
                    parent=book.pbn,
                    fragment="<author><name>Careted</name></author>",
                    before=first_author.pbn,
                )
            )
        store = durable.store
        careted = [
            node
            for node in store.document.iter_subtree()
            if node.name == "author" and not isinstance(node.pbn.components[-1], int)
        ]
        assert len(careted) == 3
        for spec in ("title { author { name } }", "data { book { author { ** } title } }"):
            assert_batches_match_oracle(_view_over(store, spec), seed)
        path = str(tmp_path / "image.vpbn")
        save_store(store, path)
    finally:
        durable.close()
    assert_batches_match_oracle(_view_over(load_store(path), "title { author { name } }"))


@pytest.mark.parametrize("workload", ALL_WORKLOADS[:3], ids=lambda w: w.name)
def test_batches_on_reopened_v1_and_v2_images(tmp_path, workload):
    from repro.storage.persist import parse_store_ex
    from tests.storage.test_persist import _dump_v1

    store = DocumentStore(_workload_document(workload.name))
    path = str(tmp_path / "image.vpbn")
    save_store(store, path)
    for reopened in (load_store(path), parse_store_ex(io.BytesIO(_dump_v1(store)))[0]):
        assert_batches_match_oracle(_view_over(reopened, workload.spec))


def _delta(stats, before: dict) -> dict:
    return {key: value - before[key] for key, value in stats.snapshot().items()}


def _pages(store, vnodes) -> int:
    size = store.heap.manager.page_size
    pages = set()
    for vnode in vnodes:
        start, end = store.value_index.span(vnode.node.pbn)
        pages.update(range(start // size, (end - 1) // size + 1))
    return len(pages)


@pytest.mark.parametrize(
    "spec, spliced_type",
    [("title { author { name } }", "author"), ("book { ** }", "book")],
)
def test_a_batch_costs_what_its_items_cost_but_the_page_requests(spec, spliced_type):
    store = DocumentStore(books_document(60, seed=5), page_size=256)
    vdoc = _view_over(store, spec)
    roots = vdoc.roots()
    spliced = [v for v in _reachable(vdoc) if v.vtype.name == spliced_type]
    stats = store.stats
    one_by_one = ValueStats()
    before = stats.snapshot()
    expected = [_value(root, one_by_one) for root in roots]
    per_item = _delta(stats, before)
    batch_stats = ValueStats()
    before = stats.snapshot()
    assert write_batch(roots, [], batch_stats) == expected
    batch = _delta(stats, before)
    assert (batch_stats.spliced_ranges, batch_stats.constructed_elements) == (
        one_by_one.spliced_ranges,
        one_by_one.constructed_elements,
    )
    assert (batch_stats.batches, one_by_one.batches) == (1, len(roots))
    assert batch_stats.spliced_ranges == len(spliced) > 0
    assert batch["index_probes"] == per_item["index_probes"] == len(spliced)
    assert batch["bytes_read"] == per_item["bytes_read"] > 0
    # one buffer-pool request per distinct page of the batch, not per range
    requests = batch["buffer_hits"] + batch["page_reads"]
    assert requests <= _pages(store, spliced) < len(spliced)


def test_to_xml_writes_each_run_of_one_type_as_a_batch():
    from repro.obs.trace import Tracer

    engine = Engine()
    engine.load("b.xml", books_document(6, seed=1))
    view = 'virtualDoc("b.xml", "title { author { name } }")'
    for query, batches in (
        (f"{view}//title", 1),
        (f"({view}//title, {view}//author)", 2),
        (f"for $t in {view}//title return ($t, $t/author)", 12),
        # stored nodes and atomics are no batch; a handle is one per root type
        (f'({view}//title, doc("b.xml")//title, 1, {view})', 2),
    ):
        result = engine.execute(query)
        handle = Tracer().start("to_xml", force=True)
        with handle:
            result.to_xml()
        [to_xml] = [s for s in handle.trace.root.children if s.name == "result.to_xml"]
        assert to_xml.attrs["batches"] == batches, query


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


def test_shard_result_to_xml():
    spec = "title { author { name } }"
    uris = [f"b{i}.xml" for i in range(3)]
    union = " | ".join(f'virtualDoc("{uri}", "{spec}")//title' for uri in uris)
    engine = Engine()
    sharded = ShardedService(
        shards=2,
        pool_size=1,
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
