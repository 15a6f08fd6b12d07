"""Virtual order: one total order, decided per step on the vDataGuide.

Virtual document order is the position of a node's *first copy* in the
preorder of the materialized view (a view can place one original node
at several positions; an answer holds it once).  Level arrays are a
per-type property, so how a step's result reaches that order follows
from the virtual types it can produce — known from the context types,
the axis and the node test before a row is touched
(:meth:`VirtualNavigator.order_class`):

* **key** — one result type: component order *is* first-copy order;
* **forest** — one result type per vDataGuide tree: the runs concatenate;
* **keyed** — several types of a tree: merge by its first-copy order key;
* only a step no batch kernel covers (``axis``) declines, with a reason.

Three things are pinned here.  (a) None of it shows in an answer: over
inverting, duplicating, multi-root, sibling-colliding, recursive and
generated views, every axis × node test comes back byte-identical from
the batch kernels, the scalar loop and ``mode="sql"``, and its
``(vtype, node)`` identities are the materialized answer's, in first-copy
order — whatever order the items arrived in.  (b) The order key rises
along the materialized preorder.  (c) The cost is counts, not clocks: the
benchmark's formerly scalar queries build no ``VPbn`` and make no
comparison, and no benchmark query leaves a multi-context step on the
scalar loop.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.core.virtual_document import VNode
from repro.core.vpbn import VPbn
from repro.dataguide.build import build_dataguide
from repro.obs.profile import build_profile, operators
from repro.query.ast import NodeTest
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.query.eval_virtual import FOREST, KEY, KEYED, VirtualNavigator
from repro.query.joins import NO_KERNEL
from repro.storage.store import DocumentStore
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.treegen import random_document, random_spec
from repro.workloads.xmarklike import auction_document
from tests.query.test_path_predicates import library

AXES = (
    "self", "child", "attribute", "descendant", "descendant-or-self",
    "parent", "ancestor", "ancestor-or-self",
    "following", "preceding", "following-sibling", "preceding-sibling",
)

#: The paper's Case 2: ``name`` shares its level with the title's text.
INVERTING = "title { name { author } }"
#: Two trees over the same data.
FOREST_SPEC = "title { author { name } } name { author }"
#: Every cut complete: each virtual parent is a physical ancestor, so
#: ``parent`` / ``ancestor`` cut the context key.
COMPLETE = "book { title author { name } }"
#: ``born`` is a sibling of the inverted ``name`` *and* lives under the
#: same author: an incomplete name key (the author's) is a prefix of a
#: born key, and the Section 5 comparator weighs them on the components
#: the name key lacks.
COLLIDING = "lib.shelf.book.title { name { author } born }"
#: ``c1`` shares only the root with the two ``p``, so it sits under both:
#: under the second it follows that ``p``'s own ``c2`` in sibling order,
#: while its first copy, under the first ``p``, precedes the second.
SHARED_CHILD = "p { c2 c1 }"


def _random_view(seed: int, spec_seed: int, **shape):
    document = random_document(seed, **shape)
    return document, random_spec(build_dataguide(document), spec_seed)


#: ``id -> (document, spec)``
VIEWS = {
    "inverting": (books_document(6, seed=3), INVERTING),
    "complete": (books_document(6, seed=8), COMPLETE),
    "duplicating": (dblp_document(6, seed=4), Q.DBLP_BY_AUTHOR.spec),
    "forest": (books_document(5, seed=5), FOREST_SPEC),
    "colliding": (library(5, shelves=2, books=3), COLLIDING),
    "shared-child": (
        "<a><b><p><c2>x</c2></p></b><b><p><c2>y</c2></p></b><c1>z</c1></a>",
        SHARED_CHILD,
    ),
    # root { root.a.c { root.a.c.d root } root.a }: the Section 5
    # comparator is cyclic on it (test_columnar_kernels.py)
    "recursive": _random_view(31, 1031, max_depth=5, max_children=4),
    # several contexts of one binding merge types on a comparator that
    # is not a total order (test_flwor_groups.py)
    **{
        f"generated-{seed}": _random_view(seed, seed + 1000, max_depth=5, max_children=4)
        for seed in (63, 118)
    },
    **{
        f"random-{seed}": _random_view(seed, seed + 1000, max_depth=4, max_children=3)
        for seed in (12, 29, 57, 64)
    },
}


def _names(spec: str) -> list[str]:
    words = spec.replace("{", " ").replace("}", " ").split()
    return sorted({word.split(".")[-1] for word in words if "*" not in word})


def _payload(result):
    return (result.to_xml(), result.values())


def _open(view: str):
    """``(engine over the view, engine over its materialization, vdoc,
    provenance)`` — ``provenance`` maps each materialized node to the
    ``(vtype, node)`` identity it copies."""
    document, spec = VIEWS[view]
    engine = Engine()
    engine.load("d.xml", document)
    vdoc = engine.virtual("d.xml", spec)
    materialized = Engine()
    built, provenance = vdoc.materialize_with_provenance("m.xml")
    materialized.attach("m.xml", DocumentStore(built))
    return engine, materialized, vdoc, {
        node: _identity(vnode) for node, vnode in provenance.items()
    }


def _identity(vnode):
    return (vnode.vtype.dotted(), vnode.node.pbn.components)


# -- (a) the differential ----------------------------------------------------


@pytest.mark.parametrize("view", list(VIEWS))
def test_every_axis_agrees_on_every_arm(view, monkeypatch, each_codec):
    _, spec = VIEWS[view]
    source = f'virtualDoc("d.xml", "{spec}")'
    names = _names(spec)
    for codec in each_codec():
        engine, materialized, vdoc, provenance = _open(view)
        copied = _copied(vdoc)
        answered = 0
        for context in ("//*", f"//{names[-1]}"):
            for axis in AXES:
                tests = ["*", "node()", *names[:2]]
                if axis != "attribute":
                    tests.append("text()")
                for test in tests:
                    path = f"{context}/{axis}::{test}"
                    where = f"{view} {codec} {path}"
                    result = engine.execute(source + path)
                    batch = _payload(result)
                    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
                    scalar = _payload(engine.execute(source + path))
                    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
                    assert batch == scalar, f"batch != scalar: {where}"
                    sql = _payload(engine.execute(source + path, mode="sql"))
                    assert sql == scalar, f"sql != scalar: {where}"
                    answered += bool(batch[1])
                    found = [
                        _identity(item) if isinstance(item, VNode) else "document"
                        for item in result.items
                    ]
                    tree = materialized.execute('doc("m.xml")' + path, mode="tree")
                    copies = [provenance.get(node, "document") for node in tree.items]
                    if copied and axis in ("following", "preceding"):
                        # Section 5 decides who is on these axes from the
                        # copies' shared original components (core/vpbn.py):
                        # a later copy of a node can follow a context its
                        # first copy precedes, so where the view copies a
                        # node only the order is pinned.
                        wanted = set(found)
                    else:
                        wanted = set(copies)
                    expected = ["document"] * ("document" in wanted) + _first_copies(
                        vdoc, lambda v: _identity(v) in wanted
                    )
                    assert found == expected, f"virtual != first copies: {where}"
                    if not copied or (
                        len(copies) == len(set(copies)) and wanted == set(copies)
                    ):
                        # No copies among the answers: byte for byte too.
                        assert batch == _payload(tree), f"virtual != materialized: {where}"
        assert answered > 20, view  # the suite is not vacuous


@pytest.mark.parametrize(
    "path, count",
    [
        ("/title[1]/parent::node()", 1),
        ("/title[1]/ancestor::node()", 1),
        ("//name/ancestor::node()", 8),
        ("/ancestor-or-self::node()", 1),
        ("/title[1]/ancestor-or-self::node()", 2),
    ],
)
def test_virtual_ancestor_axes_reach_the_document_node(path, count, monkeypatch):
    """The virtual document node a root's ``parent`` reaches is on its
    ``ancestor`` axes too, as the materialized document node is — on
    every arm."""
    spec = "title { author { name } }"
    engine = Engine()
    engine.load("d.xml", books_document(2, seed=1))
    built = engine.virtual("d.xml", spec).materialize("m.xml")
    engine.attach("m.xml", DocumentStore(built))
    query = f'count(virtualDoc("d.xml", "{spec}"){path})'
    materialized = engine.execute(f'count(doc("m.xml"){path})').values()
    assert materialized == [str(count)]
    assert engine.execute(query).values() == materialized
    assert engine.execute(query, mode="sql").values() == materialized
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    assert engine.execute(query).values() == materialized


@pytest.mark.parametrize("view", ["recursive", "generated-63", "generated-118"])
def test_document_order_is_independent_of_input_order(view):
    engine, _, vdoc, _ = _open(view)
    _, spec = VIEWS[view]
    items = list(engine.execute(f'virtualDoc("d.xml", "{spec}")//node()').items)
    expected = _first_copies(vdoc, lambda v: not v.vtype.is_attribute)
    shuffler = random.Random(view)
    orders = set()
    for _ in range(30):
        shuffler.shuffle(items)
        orders.add(tuple(map(_identity, Evaluator(engine).document_order(items))))
    assert orders == {tuple(expected)}, view


def test_positional_predicates_count_in_each_copys_sibling_order(monkeypatch):
    # A context's children come in its own sibling order — the order its
    # positional predicates count in, as in the materialized view — while
    # a step's answer is virtual order: `c1` stands at its first copy.
    engine, materialized, vdoc, provenance = _open("shared-child")
    source = f'virtualDoc("d.xml", "{SHARED_CHILD}")'
    for query, values in (
        ("{}//p/*[1]", ["x", "y"]),
        ("{}//p/*[2]", ["z"]),
        ("{}//p/node()[last()]", ["z"]),
        ("({}//p)[2]/*", ["z", "y"]),
        ("({}//p)[2]/*[1]", ["y"]),
    ):
        virtual = query.format(source)
        result = engine.execute(virtual)
        assert result.values() == values, query
        tree = materialized.execute(query.format('doc("m.xml")'), mode="tree")
        wanted = {provenance[node] for node in tree.items}
        assert _identities(result.items) == _first_copies(
            vdoc, lambda v: _identity(v) in wanted
        ), query
        monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
        assert _payload(engine.execute(virtual)) == _payload(result), query
        monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
        assert _payload(engine.execute(virtual, mode="sql")) == _payload(result), query


# -- (b) the order each class produces is the materialized preorder ----------


def _order_class(vdoc, context_names, axis, test):
    vtypes = [
        vtype
        for vtype in vdoc.vguide.iter_vtypes()
        if vtype.name in context_names
    ]
    return VirtualNavigator().order_class(vdoc, vtypes, axis, test)


def _identities(items):
    return list(map(_identity, items))


def _copied(vdoc) -> bool:
    """Whether the materialized view holds some node more than once."""
    identities = [_identity(vnode) for vnode, _ in vdoc.iter_preorder()]
    return len(identities) > len(set(identities))


def _first_copies(vdoc, keep) -> list:
    """The view's preorder (copies expanded the way the materialized
    document holds them), filtered, each virtual position once."""
    seen, out = set(), []
    for vnode, _ in vdoc.iter_preorder():
        identity = _identity(vnode)
        if keep(vnode) and identity not in seen:
            seen.add(identity)
            out.append(identity)
    return out


@pytest.mark.parametrize("view", list(VIEWS))
def test_order_keys_rise_along_the_materialized_preorder(view):
    # The key of each node's first copy in the materialized preorder is
    # strictly above its predecessor's — key order is the first-copy
    # preorder, on every tree of every view, whatever types a step mixes.
    _, _, vdoc, _ = _open(view)
    order_key = VirtualNavigator()._order_keys(vdoc)[0]
    seen, keys = set(), []
    for vnode, _ in vdoc.iter_preorder():
        if _identity(vnode) not in seen:
            seen.add(_identity(vnode))
            keys.append(order_key(vnode))
    assert all(a < b for a, b in zip(keys, keys[1:])), view


def test_the_inverted_name_level_is_keyed():
    # `name` is not alone at its level (the title's text sits there too):
    # its incomplete key resolves to the full one, and a mixed-type step
    # merges by key into exactly the materialized sibling order.
    engine, _, vdoc, _ = _open("inverting")
    star, node = NodeTest("wildcard"), NodeTest("node")
    assert _order_class(vdoc, {"title"}, "child", node) == KEYED
    assert _order_class(vdoc, {"title"}, "child", star) == KEY
    assert _order_class(vdoc, {"title"}, "descendant", star) == KEYED
    assert _order_class(vdoc, {"name"}, "parent", star) == NO_KERNEL
    source = f'virtualDoc("d.xml", "{INVERTING}")'
    for path, keep in (
        ("//title/node()", lambda v: v.vtype.level == 2),
        ("//title/descendant::node()", lambda v: v.vtype.level > 1),
        ("//node()", lambda v: True),
    ):
        result = engine.execute(source + path)
        assert _identities(result.items) == _first_copies(vdoc, keep), path


def test_duplicating_view_orders_by_key_and_by_forest():
    engine, _, vdoc, _ = _open("duplicating")
    name = lambda label: NodeTest("name", label)  # noqa: E731
    star, node = NodeTest("wildcard"), NodeTest("node")
    # one type; one type per tree; several types of one tree
    assert _order_class(vdoc, (), "descendant", name("article")) == KEY
    assert _order_class(vdoc, {"author"}, "child", name("article")) == KEY
    assert _order_class(vdoc, (), "descendant", name("author")) == FOREST
    assert _order_class(vdoc, {"author"}, "child", star) == FOREST
    assert _order_class(vdoc, {"author"}, "descendant", name("title")) == FOREST
    assert _order_class(vdoc, {"author"}, "child", node) == KEYED
    assert _order_class(vdoc, {"article"}, "child", star) == KEYED
    assert _order_class(vdoc, (), "descendant", star) == KEYED
    source = f'virtualDoc("d.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    for path, keep in (
        # forest: the root runs, concatenated
        ("//author", lambda v: v.vtype.parent is None),
        ("//author/*", lambda v: v.vtype.level == 2 and not v.vtype.is_text),
        ("//author/descendant::title", lambda v: v.name == "title"),
        # key: each article once, where its first copy stands
        ("//author/article", lambda v: v.name == "article"),
        ("//article/year", lambda v: v.vtype.dotted().endswith("article.year")),
        # keyed: several types of a tree merge by the first-copy key
        ("//author/node()", lambda v: v.vtype.level == 2),
        ("//article/*", lambda v: v.vtype.dotted() in ("author.article.title",
                                                        "author.article.year")),
        ("//*", lambda v: not v.vtype.is_text and not v.vtype.is_attribute),
    ):
        result = engine.execute(source + path)
        assert _identities(result.items) == _first_copies(vdoc, keep), path


def test_forest_roots_concatenate():
    engine, _, vdoc, _ = _open("forest")
    source = f'virtualDoc("d.xml", "{FOREST_SPEC}")'
    for path, keep in (
        ("//name", lambda v: v.name == "name"),
        ("//*", lambda v: not v.vtype.is_text and not v.vtype.is_attribute),
        ("//*/author", lambda v: v.name == "author"),
    ):
        result = engine.execute(source + path)
        assert _identities(result.items) == _first_copies(vdoc, keep), path


# -- observability: only a step no kernel covers declines, and says why -----


def _step_rows(engine, query):
    _, trace = engine.explain_analyze(query)
    return {
        row.detail: row.attrs
        for row in operators(build_profile(trace))
        if row.name == "step"
    }


def test_mixed_type_steps_decline_per_step_with_the_reason():
    # A mixed-type step runs a kernel on any view; only a step no kernel
    # covers declines, per step, with its reason.
    engine, _, _, _ = _open("duplicating")
    source = f'virtualDoc("d.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    rows = _step_rows(engine, f"{source}//author/article/node()")
    assert rows["child::article"]["kernel"] == "columnar"  # one type: by key
    assert rows["child::node()"]["kernel"] == "columnar"  # title | year | text
    assert "reason" not in rows["child::node()"]
    # ... and a step with no virtual kernel is `axis`, whatever the view.
    rows = _step_rows(engine, f"{source}//author/parent::node()")
    assert rows["descendant::author"]["kernel"] == "columnar"  # the document step
    assert rows["parent::node()"]["kernel"] == "scalar"
    assert rows["parent::node()"]["reason"] == NO_KERNEL

    engine, _, _, _ = _open("recursive")
    source = f'virtualDoc("d.xml", "{VIEWS["recursive"][1]}")'
    rows = _step_rows(engine, f"{source}//*/child::*")
    assert rows["child::*"]["kernel"] == "columnar"
    assert "reason" not in rows["child::*"]
    rows = _step_rows(engine, f"{source}//*/child::d")  # one type: by key
    assert rows["child::d"]["kernel"] == "columnar"


def test_complete_cuts_run_parent_and_ancestor_by_key_truncation():
    engine, materialized, _, _ = _open("complete")
    source = f'virtualDoc("d.xml", "{COMPLETE}")'
    for path, step in (
        ("//name/parent::*", "parent::*"),
        ("//title/parent::*", "parent::*"),
        ("//name/ancestor::*", "ancestor::*"),
        ("//*/ancestor-or-self::author", "ancestor-or-self::author"),
        ("//name/ancestor-or-self::*", "ancestor-or-self::*"),
    ):
        assert _step_rows(engine, source + path)[step]["kernel"] == "columnar", path
        virtual = _payload(engine.execute(source + path))
        assert virtual[1], path  # not vacuous
        tree = _payload(materialized.execute('doc("m.xml")' + path, mode="tree"))
        assert virtual == tree, path
    # ``title { author }``: an author's virtual parent is no physical
    # ancestor of it (an incomplete cut), so the step still declines.
    engine, _, _, _ = _open("inverting")
    rows = _step_rows(engine, 'virtualDoc("d.xml", "title { author }")//author/parent::*')
    assert (rows["parent::*"]["kernel"], rows["parent::*"]["reason"]) == ("scalar", NO_KERNEL)


def test_aggregate_declines_carry_the_reason():
    seen = []

    class _Metrics:
        def incr(self, name, value=1, labels=None):
            if name == "engine.kernel":
                seen.append(dict(labels))

        def observe(self, *args, **kwargs):
            pass

    engine, _, _, _ = _open("duplicating")
    engine.metrics = _Metrics()
    source = f'virtualDoc("d.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    # a count orders nothing: the duplicating view aggregates by bounds
    engine.execute(f"count({source}//author/node())")
    assert seen == [{"kernel": "columnar"}, {"kernel": "prefix-sum"}]
    del seen[:]
    rows = _step_rows(engine, f"count({source}//author/parent::node())")
    assert seen == [{"kernel": "columnar"}, {"kernel": "scalar", "reason": NO_KERNEL}]
    assert rows["parent::node()"]["kernel"] == "scalar"
    assert rows["parent::node()"]["reason"] == NO_KERNEL


# -- (c) cost, as counts ------------------------------------------------------


def _counted(engine, query):
    """``(VPbn constructions, stats.comparisons)`` of one warm run."""
    engine.execute(query)  # the view, its columns, the order decisions
    engine.reset_stats()
    built = []
    init = VPbn.__init__

    def counting(self, number, vtype):
        built.append(1)
        init(self, number, vtype)

    with mock.patch.object(VPbn, "__init__", counting):
        result = engine.execute(query)
    assert len(result) > 0
    return len(built), engine.stats.comparisons


@pytest.mark.parametrize("books", [50, 500])
def test_inverted_child_step_builds_no_vpbn(books):
    engine = Engine()
    engine.load("book.xml", books_document(books, seed=7))
    query = Q.instantiate(
        Q.BOOKS_CASE2.queries["name-authors"],
        Q.virtual_source("book.xml", Q.BOOKS_CASE2.spec),
    )
    assert _counted(engine, query) == (0, 0)


def test_forest_roots_build_no_vpbn():
    engine = Engine()
    engine.load("dblp.xml", dblp_document(250, seed=7))
    source = Q.virtual_source("dblp.xml", Q.DBLP_BY_AUTHOR.spec)
    for template in Q.DBLP_BY_AUTHOR.queries.values():
        assert _counted(engine, Q.instantiate(template, source)) == (0, 0), template


def test_no_benchmark_query_leaves_a_context_set_on_the_scalar_loop():
    engine = Engine()
    engine.load("book.xml", books_document(30, seed=1))
    engine.load("auction.xml", auction_document(12, seed=1))
    engine.load("dblp.xml", dblp_document(30, seed=1))
    uris = {"books": "book.xml", "auction": "auction.xml", "dblp": "dblp.xml"}
    checked = 0
    for workload in Q.ALL_WORKLOADS:
        uri = uris[workload.name.split("-")[0]]
        for name, template in workload.queries.items():
            query = Q.instantiate(template, Q.virtual_source(uri, workload.spec))
            _, trace = engine.explain_analyze(query)
            for row in operators(build_profile(trace)):
                if row.name == "step" and row.attrs.get("kernel") == "scalar":
                    assert row.attrs["items_in"] <= row.calls, (name, row.detail)
                    assert row.attrs.get("reason"), (name, row.detail)
            checked += 1
    assert checked == 13
