"""Columnar batch kernels vs the scalar per-item path.

The batch merge-join kernels must be invisible above the navigator layer:
for every axis they cover, flipping :attr:`Evaluator.use_batch_kernels`
must not change a single item or its position.  These tests pin that down
over randomized documents and randomized virtual views, for both the
virtual and the indexed navigator, and additionally check the two pieces
of observable plumbing the kernels do add:

* EXPLAIN ANALYZE step rows carry a ``kernel`` attribute saying which
  path evaluated the step (``columnar`` or ``scalar``), and
* updates through the service invalidate only the touched guide types'
  columns — untouched types keep their :class:`Column` objects by
  identity across the copy-on-write derivation.

The child / attribute kernel reads its runs by row off a per-view
parent->child run table where the contexts know their rows (the whole
type in key order, or rows carried over from the step that made them),
and probes their prefixes otherwise; both sides, on the views where a
run is shared or empty, are pinned against the per-item loop,
``mode="tree"`` and ``mode="sql"`` below.
"""

from __future__ import annotations

import pytest

from repro.core.virtual_document import VNode
from repro.dataguide.build import build_dataguide
from repro.obs.profile import build_profile, operators
from repro.pbn.number import Pbn
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.service import QueryService
from repro.updates.ops import InsertSubtree
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.nodes import Node

# Every axis a batch kernel covers, plus a couple it does not (parent /
# ancestor stay scalar on the virtual side) so the fallback path is
# exercised through the same gate.
AXES = [
    "child::*",
    "child::node()",
    "attribute::*",
    "descendant::*",
    "descendant-or-self::node()",
    "parent::*",
    "ancestor::node()",
    "ancestor-or-self::*",
    "following-sibling::*",
    "preceding-sibling::*",
    "following::*",
    "preceding::*",
    "following::text()",
    "preceding-sibling::text()",
]


def _fingerprint(result) -> list:
    """Identity-and-order fingerprint of a result sequence.

    Node and VNode identities are stable across executions against the
    same engine (stores and virtual documents are cached), so comparing
    fingerprints compares the exact items in the exact order.
    """
    out = []
    for item in result.items:
        if isinstance(item, VNode):
            out.append(("vnode", id(item.vtype), id(item.node)))
        elif isinstance(item, Node):
            out.append(("node", id(item)))
        else:
            out.append(("atom", type(item).__name__, repr(item)))
    return out


def _both_ways(engine, query, monkeypatch, mode=None):
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    scalar = _fingerprint(engine.execute(query, mode=mode))
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    batch = _fingerprint(engine.execute(query, mode=mode))
    return scalar, batch


@pytest.mark.parametrize("seed", range(8))
def test_virtual_batch_matches_scalar(seed, monkeypatch):
    document = random_document(seed, max_depth=4, max_children=3)
    guide = build_dataguide(document)
    spec = random_spec(guide, seed, max_roots=2, max_children=3, max_depth=3)
    engine = Engine()
    engine.load("rand.xml", document)
    source = f'virtualDoc("rand.xml", "{spec}")'
    for axis in AXES:
        query = f"{source}//*/{axis}"
        scalar, batch = _both_ways(engine, query, monkeypatch)
        assert batch == scalar, f"seed={seed} axis={axis}"


@pytest.mark.parametrize("seed", range(8))
def test_indexed_batch_matches_scalar(seed, monkeypatch):
    document = random_document(seed + 100, max_depth=4, max_children=3)
    engine = Engine()
    engine.load("rand.xml", document)
    for axis in AXES:
        query = f'doc("rand.xml")//*/{axis}'
        scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
        assert batch == scalar, f"seed={seed} axis={axis}"


def test_attribute_contexts_match(monkeypatch):
    # Attribute nodes as the *context* of ordering and sibling steps hit
    # the kernels' attribute special cases (attributes are never siblings,
    # but do take part in following/preceding).
    document = random_document(3, max_depth=4, max_children=3,
                               attribute_probability=0.6)
    engine = Engine()
    engine.load("attr.xml", document)
    for axis in ("following::*", "preceding::*", "following-sibling::*",
                 "preceding-sibling::*", "parent::*"):
        query = f'doc("attr.xml")//*/attribute::*/{axis}'
        scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
        assert batch == scalar, axis


def test_named_steps_match_over_books(monkeypatch):
    engine = Engine()
    engine.load("book.xml", books_document(40, seed=11))
    view = 'virtualDoc("book.xml", "title { author { name } }")'
    for query in (
        f"{view}//title/child::author",
        f"{view}//author/following::name",
        f"{view}//name/preceding::title",
        f"{view}//title/following-sibling::title",
        f"{view}//author/preceding-sibling::author",
        'doc("book.xml")//author/following::title',
        'doc("book.xml")//title/preceding::author',
        'doc("book.xml")//book/child::title',
    ):
        scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
        assert batch == scalar, query


def test_explain_analyze_rows_carry_kernel_attribute():
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=4))
    _, trace = engine.explain_analyze(
        'doc("book.xml")//book/author[name]/name', mode="indexed"
    )
    rows = operators(build_profile(trace))
    kernels = {row.detail: row.attrs.get("kernel") for row in rows}
    assert kernels, "expected step operators in the profile"
    assert all(value in ("columnar", "scalar") for value in kernels.values())
    # Predicate-free steps over non-document contexts batch; the
    # predicated step must stay on the scalar path.
    assert kernels["child::name"] == "columnar"
    assert kernels["child::author"] == "scalar"


def test_explain_analyze_virtual_kernel_attribute():
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=4))
    _, trace = engine.explain_analyze(
        'virtualDoc("book.xml", "title { author { name } }")//title/author'
    )
    rows = operators(build_profile(trace))
    kernels = {row.detail: row.attrs.get("kernel") for row in rows}
    assert kernels.get("child::author") == "columnar"


def test_type_index_derived_drops_only_touched_columns():
    engine = Engine()
    store = engine.load("book.xml", books_document(10, seed=3))
    guide = store.guide
    title_id = store.type_id(guide.lookup_path(("data", "book", "title")))
    author_id = store.type_id(guide.lookup_path(("data", "book", "author")))
    index = store.type_index
    title_column = index.column(title_id)
    author_column = index.column(author_id)
    assert title_column is not None and author_column is not None

    derived = index.derived({author_id}, store.stats)
    # Untouched column objects survive the derivation by identity ...
    assert derived.column(title_id) is title_column
    # ... while the touched type's column is rebuilt from scratch.
    assert derived.column(author_id) is not author_column
    assert derived.column(author_id).keys == author_column.keys


def test_service_update_invalidates_only_touched_type_columns(monkeypatch):
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(8, seed=2))
    store = service.store("book.xml")
    guide = store.guide
    title_id = store.type_id(guide.lookup_path(("data", "book", "title")))
    title_column = store.type_index.column(title_id)
    assert title_column is not None

    # Insert a second author under the first book: touches the author
    # chain's types but not title.
    service.update(
        "book.xml",
        InsertSubtree(
            parent=Pbn.parse("1.1"),
            fragment="<author><name>Fresh</name></author>",
        ),
    )
    new_store = service.store("book.xml")
    assert new_store is not store
    assert new_store.type_index.column(title_id) is title_column

    author_id = new_store.type_id(
        new_store.guide.lookup_path(("data", "book", "author"))
    )
    author_column = new_store.type_index.column(author_id)
    assert author_column is not None
    assert len(author_column.keys) == len(
        store.type_index.column(author_id).keys
    ) + 1

    # And the batch kernels see the post-update columns: the new author
    # shows up through a columnar child step.
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    names = service.execute(
        'doc("book.xml")//author/child::name', mode="indexed"
    )
    assert "Fresh" in {item.string_value() for item in names}
    assert len(names) == len(author_column.keys)


def test_order_key_gate_on_books_inversion():
    """The canonical inverted view's order key: the incomplete title
    identity in the author/name chains resolves through the title column
    (one title per book), and ``//*`` comes out in key order."""
    from repro.query.eval_virtual import VirtualNavigator

    engine = Engine()
    engine.load("book.xml", books_document(8))
    result = engine.execute(
        'virtualDoc("book.xml", "title { author { name } }")//*'
    )
    vnodes = [item for item in result.items if isinstance(item, VNode)]
    fn = VirtualNavigator()._order_keys(vnodes[0]._vdoc)[0]
    keys = [fn(vnode) for vnode in vnodes]
    assert keys == sorted(keys)  # //* already comes out in virtual order


def _first_copies(vdoc) -> list:
    """The materialized preorder, each virtual position once."""
    return list(dict.fromkeys(vnode for vnode, _ in vdoc.iter_preorder()))


def test_non_linearizable_view_orders_by_first_copy(monkeypatch):
    """A recursive self-inverting view can make the stratified virtual
    comparator cyclic — it is no order to merge by.  The first-copy
    order key is: batch and scalar agree byte for byte, and the answer
    is the first copies of the materialized preorder, in order."""
    from repro.core import vpbn

    # random seed 31 reproduces the cycle: the view nests `root` inside
    # its own descendant chain (root { root.a.c { root.a.c.d root } ... }).
    document = random_document(31, max_depth=5, max_children=4)
    guide = build_dataguide(document)
    spec = random_spec(guide, 1031)
    engine = Engine()
    engine.load("cyclic.xml", document)
    source = f'virtualDoc("cyclic.xml", "{spec}")'

    result = engine.execute(f"{source}//*/descendant::*")
    vnodes = [item for item in result.items if isinstance(item, VNode)]
    comparisons = {
        (i, j): vpbn.compare_virtual_order(a.vpbn, b.vpbn)
        for i, a in enumerate(vnodes)
        for j, b in enumerate(vnodes)
    }
    assert any(  # the comparator really is non-transitive on this view
        comparisons[i, j] < 0 and comparisons[j, k] < 0 and comparisons[i, k] >= 0
        for i in range(len(vnodes))
        for j in range(len(vnodes))
        for k in range(len(vnodes))
        if len({i, j, k}) == 3
    )

    answer = set(vnodes)
    assert vnodes == [vnode for vnode in _first_copies(vnodes[0]._vdoc) if vnode in answer]
    for axis in ("descendant", "preceding", "following", "child"):
        scalar, batch = _both_ways(engine, f"{source}//*/{axis}::*", monkeypatch)
        assert batch == scalar, axis


# -- child runs by row: the run table and the probe --------------------------


def _gappy(books: int) -> str:
    """Parents without children: every third ``b`` has no ``a``, every
    other one no ``k`` attribute, and every fifth is empty."""
    parts = ["<r>"]
    for index in range(books):
        if index % 5 == 4:
            parts.append("<b/>")
            continue
        parts.append(f'<b k="{index}">' if index % 2 else "<b>")
        parts.append(f"<t>T{index}</t>")
        if index % 3:
            parts.append("".join(f"<a>{index}.{n}</a>" for n in range(1 + index % 2)))
        parts.append("</b>")
    parts.append("</r>")
    return "".join(parts)


#: ``id -> (document text, spec or "" for the stored document, context
#: name, child steps)``: parents without children and the attribute axis;
#: an incomplete cut (a title's authors are its book's); a duplicating
#: view (an article under each of its authors).
RUN_TABLE_CASES = {
    "gappy": (_gappy(40), "", "b", ["a", "@k", "node()", "a/text()"]),
    "incomplete-cut": (serialize(books_document(40, seed=5)), Q.BOOKS_INVERT.spec,
                       "title", ["author", "node()", "author/name"]),
    "duplicating": (serialize(dblp_document(30, seed=5)), Q.DBLP_BY_AUTHOR.spec,
                    "author", ["article", "*", "article/title"]),
}

#: Context sets: the whole type (rows ``0..n-1``: the table is read, and
#: built on first use), half of it and three of it (their prefixes are
#: probed; the next step of a two-step path reads its table by the rows
#: they carry, once a whole-type query has built it), and the whole type
#: out of key order (an ``order by``: probed).
RUN_TABLE_SHAPES = (
    "{src}//{ctx}/{step}",
    "({src}//{ctx})[position() mod 2 = 0]/{step}",
    "({src}//{ctx})[position() <= 3]/{step}",
    "count({src}//{ctx}/{step})",
    "count(({src}//{ctx})[position() mod 2 = 0]/{step})",
    "for $v in {src}//{ctx} return <r>{{ $v/{step} }}|{{ count($v/{step}) }}</r>",
    "for $v in ({src}//{ctx})[position() mod 2 = 1] return <r>{{ $v/{step} }}</r>",
    "for $v in ({src}//{ctx})[position() <= 3] return <r>{{ count($v/{step}) }}</r>",
    "for $v at $i in {src}//{ctx} order by $i descending "
    "return <r>{{ $v/{step} }}{{ count($v/{step}) }}</r>",
)


def _run_table_queries(case: str):
    _, spec, ctx, steps = RUN_TABLE_CASES[case]
    src = f'virtualDoc("d.xml", "{spec}")' if spec else 'doc("d.xml")'
    for step in steps:
        for shape in RUN_TABLE_SHAPES:
            yield shape.format(src=src, ctx=ctx, step=step)


def _every_arm(execute, query, monkeypatch) -> tuple:
    """The answer with kernels on, asserted equal — bytes and values — to
    kernels off, ``mode="tree"`` and ``mode="sql"``."""
    result = execute(query, None)
    answer = (result.to_xml(), result.values())
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    loop = execute(query, None)
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    for arm, other in (("loop", loop), ("tree", execute(query, "tree")),
                       ("sql", execute(query, "sql"))):
        assert (other.to_xml(), other.values()) == answer, f"{arm}: {query}"
    return answer


@pytest.mark.parametrize("case", list(RUN_TABLE_CASES))
def test_child_runs_match_every_arm(case, monkeypatch, each_codec):
    for _ in each_codec():
        engine = Engine()
        engine.load("d.xml", RUN_TABLE_CASES[case][0])
        execute = lambda query, mode: engine.execute(query, mode=mode)  # noqa: E731
        answered = [_every_arm(execute, query, monkeypatch) for query in _run_table_queries(case)]
        assert sum(bool(values) for _, values in answered) > len(RUN_TABLE_SHAPES), case


def test_child_runs_over_careted_keys_match_every_arm(monkeypatch, each_codec):
    """Books inserted ``before`` a sibling get rational ordinals: their
    types' columns stay raw tuples holding ``Fraction`` components, and the
    run tables are swept over them."""
    for _ in each_codec():
        service = QueryService(pool_size=1)
        service.load("d.xml", books_document(24, seed=9))
        for position in (2, 2, 5):
            service.update("d.xml", InsertSubtree(
                parent=Pbn.parse("1"),
                fragment="<book><title>New</title><author><name>A</name></author>"
                "<author><name>B</name></author></book>",
                before=Pbn.parse(f"1.{position}"),
            ))
        store = service.store("d.xml")
        book = store.guide.lookup_path(("data", "book"))
        assert any(type(c) is not int for key in store.type_index.postings(
            store.type_id(book)) for c in key)
        execute = lambda query, mode: service.execute(query, mode=mode)  # noqa: E731
        for spec, ctx, step in (("", "book", "author"), ("", "book", "title/text()"),
                                (Q.BOOKS_INVERT.spec, "title", "author/name")):
            src = f'virtualDoc("d.xml", "{spec}")' if spec else 'doc("d.xml")'
            for shape in RUN_TABLE_SHAPES:
                _every_arm(execute, shape.format(src=src, ctx=ctx, step=step), monkeypatch)
