"""A constructed level written column by column = merged parent by parent
= materialized.

The value writer (:mod:`repro.core.values`) writes a constructed level
column by column when every parent's child runs follow each other in one
type order, and merges the level parent by parent when they interleave.
On every shape below the view's whole value is written three ways, and
the three must be byte-identical:

* the writer as it is (``merged_parents`` tells which path it took);
* the writer with the per-parent merge forced on every level;
* ``materialize`` + ``serialize``.

The shapes: child types in specification order and in the reverse order,
runs that interleave, a node placed twice, attribute children, a parent
whose child rows all have empty values, and a version after an update
(whose span column must be the new version's, not the old one's).
"""

import sys
import threading

import pytest

from repro.core import values
from repro.core.values import ValueStats, write_batch
from repro.core.virtual_document import VirtualDocument
from repro.pbn.number import Pbn
from repro.query.engine import Engine
from repro.storage.store import DocumentStore
from repro.storage.value_index import ValueIndex
from repro.updates.mutations import apply_op
from repro.updates.ops import ReplaceText
from repro.vdataguide.grammar import parse_vdataguide
from repro.workloads import books_document
from repro.xmlmodel.nodes import Text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


def _view(store: DocumentStore, spec: str) -> VirtualDocument:
    return VirtualDocument(store, parse_vdataguide(spec, store.guide))


def _store(source) -> DocumentStore:
    return DocumentStore(parse_document(source) if isinstance(source, str) else source)


def _written(vdoc: VirtualDocument, stats: ValueStats) -> str:
    parts: list[str] = []
    for root in vdoc.vguide.roots:
        write_batch(vdoc.instances(root), parts, stats, vdoc)
    return "".join(parts)


def _three_ways(vdoc: VirtualDocument, monkeypatch) -> ValueStats:
    """Assert the three writings agree; the writer's own stats."""
    stats = ValueStats()
    written = _written(vdoc, stats)
    with monkeypatch.context() as patched:
        patched.setattr(values, "_run_order", lambda shares: None)
        merged = _written(vdoc, ValueStats())
    materialized = "".join(serialize(root) for root in vdoc.materialize().children)
    assert written == merged == materialized, vdoc.vguide.to_spec()
    # Every type's reachable instances as one batch, against their copies.
    for vtype in vdoc.vguide.iter_vtypes():
        run = vdoc.reachable_instances(vtype)
        if run:
            assert write_batch(run, []) == [serialize(vdoc.copy_subtree(v)) for v in run]
    return stats


def test_child_types_in_specification_order(monkeypatch):
    vdoc = _view(_store(books_document(40, seed=3)), "title { author { name } }")
    stats = _three_ways(vdoc, monkeypatch)
    assert stats.constructed_elements > 0
    assert stats.merged_parents == 0  # the title's text, then its authors


def test_child_types_in_reverse_order(monkeypatch):
    """``title { name { author } }``: under each name the author (an
    original ancestor) sorts before the name's own text, the reverse of
    the specification's order (implicit text first) — still one order."""
    vdoc = _view(_store(books_document(40, seed=3)), "title { name { author } }")
    stats = _three_ways(vdoc, monkeypatch)
    assert stats.merged_parents == 0
    name = vdoc.reachable_instances(vdoc.vguide.roots[0].children[-1])[0]
    assert vdoc.value(name).startswith("<name><author/>")


def test_interleaving_runs_are_merged(monkeypatch):
    vdoc = _view(
        _store(
            "<r><p><a>1</a><b>2</b><a>3</a></p><p><a>4</a></p>"
            "<p><b>5</b><a>6</a></p><c>x</c></r>"
        ),
        "p { a b c }",
    )
    stats = _three_ways(vdoc, monkeypatch)
    assert stats.merged_parents > 0


def test_parents_disagreeing_on_the_type_order_are_merged(monkeypatch):
    """No parent interleaves, but one puts ``a`` first and one ``b``."""
    vdoc = _view(
        _store("<r><p><a>1</a><b>2</b></p><p><b>3</b><a>4</a></p><c>x</c></r>"),
        "p { a b c }",
    )
    assert _three_ways(vdoc, monkeypatch).merged_parents == 2


@pytest.mark.parametrize(
    "spec, merged",
    [
        ("book { title title }", False),  # one node twice: a tie, specification order
        ("book { author author }", True),  # two authors twice: the runs interleave
        ("book { author title author }", True),
    ],
)
def test_a_node_placed_twice(monkeypatch, spec, merged):
    vdoc = _view(
        _store(
            "<d><book><title>T</title><author>A</author><author>B</author></book>"
            "<book><title>U</title></book></d>"
        ),
        spec,
    )
    assert (_three_ways(vdoc, monkeypatch).merged_parents > 0) is merged


@pytest.mark.parametrize(
    "spec", ["title { author }", "author { book.@id @x }", "book { @x title { @a } }"]
)
def test_attribute_children(monkeypatch, spec):
    vdoc = _view(
        _store(
            '<d><book id="1" x="y"><title a="b">T</title><author>A</author></book>'
            '<book id="2" x="z&amp;"><title a="c">U</title></book></d>'
        ),
        spec,
    )
    _three_ways(vdoc, monkeypatch)


def test_child_rows_with_empty_values_still_open_and_close(monkeypatch):
    """A title whose child rows are all empty text nodes writes
    ``<title></title>``, not ``<title/>``: the rows decide, not the joined
    text.  (The parser and the update path never make an empty text node;
    a document built in code can.)"""
    document = parse_document(
        "<d><book><title/></book><book><title>U</title><author>A</author></book></d>"
    )
    document.root.children[0].children[0].append(Text(""))
    vdoc = _view(DocumentStore(document), "title { author }")
    _three_ways(vdoc, monkeypatch)
    first = vdoc.instances(vdoc.vguide.roots[0])[0]
    assert vdoc.value(first) == "<title></title>"


def test_a_version_after_an_update_reads_its_own_span_column(monkeypatch):
    """The span column is per store version: spans shift after an edit
    before them, and the new version's writer must read the new spans."""
    store = _store(books_document(20, seed=7))
    spec = "title { author { name } }"
    before = _view(store, spec)
    _three_ways(before, monkeypatch)  # builds the old version's columns
    first_title = store.document.root.children[0].children[0]
    updated = apply_op(
        store, ReplaceText(target=Pbn(*first_title.pbn.components, 1), text="a much longer title")
    ).store
    assert updated._span_columns == {}
    after = _view(updated, spec)
    _three_ways(after, monkeypatch)
    assert "a much longer title" in _written(after, ValueStats())
    assert "a much longer title" not in _written(before, ValueStats())


def test_a_version_attached_to_an_engine(monkeypatch):
    """The same through an engine: a query written before and after the
    new version is attached answers each version's bytes."""
    engine = Engine()
    engine.load("b.xml", books_document(12, seed=4))
    query = 'virtualDoc("b.xml", "title { author { name } }")//title'
    engine.execute(query).to_xml()
    store = engine.store("b.xml")
    title = store.document.root.children[0].children[0]
    updated = apply_op(store, ReplaceText(target=Pbn(*title.pbn.components, 1), text="X" * 50))
    engine.attach("b.xml", updated.store)
    answer = engine.execute(query).to_xml()
    expected = _view(updated.store, "title { author { name } }")
    assert answer == "".join(serialize(r) for r in expected.materialize().children)
    _three_ways(expected, monkeypatch)


def test_concurrent_first_writes_build_each_span_column_once(monkeypatch):
    """Eight threads write one fresh view at once, with a tiny switch
    interval: every answer is the materialized one, and the author span
    column (the only intact child type) is built once."""
    store = _store(books_document(60, seed=2))
    vdoc = _view(store, "title { author { name } }")
    expected = "".join(serialize(root) for root in vdoc.materialize().children)
    builds: list[int] = []
    build = ValueIndex.posting_spans

    def counted(self, postings):
        builds.append(len(postings))
        return build(self, postings)

    monkeypatch.setattr(ValueIndex, "posting_spans", counted)
    answers: list[str] = []
    threads = [
        threading.Thread(target=lambda: answers.append(_written(vdoc, ValueStats())))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [expected] * 8
    assert len(builds) == len(store._span_columns) == 1


def test_a_restructured_level_as_deep_as_the_document():
    """``a { ** } b`` with ``b`` at the bottom of 1,200 nested ``a``:
    every ``a`` lost a descendant type, so all 1,200 levels are
    constructed — written off an explicit stack, not by recursion."""
    depth = 1200
    store = _store("<a>" * depth + "<b/>" + "</a>" * depth)
    vdoc = _view(store, "a { ** } b")
    stats = ValueStats()
    assert _written(vdoc, stats) == "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1) + "<b/>"
    assert (stats.constructed_elements, stats.spliced_ranges) == (depth, 1)  # b splices
