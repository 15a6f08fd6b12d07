"""Virtual order decided per step on the vDataGuide, not per view.

Level arrays are a per-type property (paper Section 5), so how a step's
result orders follows from the virtual types it can produce — known from
the context types, the axis and the node test before a row is touched
(:meth:`VirtualNavigator.order_class`):

* **key** — one result type: component order *is* virtual order;
* **forest** — one result type per vDataGuide tree: the runs concatenate;
* **keyed** — several types of a tree that has an order key: merge by it;
* otherwise the step — not the view — declines, with a reason.

Three things are pinned here.  (a) None of it shows in an answer: over
inverting, duplicating, multi-root, sibling-colliding and recursive views,
every axis × node test comes back byte-identical from the batch kernels,
the scalar loop and ``mode="sql"``, and agrees with ``mode="tree"`` over
the materialized view (exactly where the whole view is keyed; as distinct
values where it is not — the duplication caveat of DESIGN.md).  (b) The
order the classes produce is the preorder of the materialized view.
(c) The cost is counts, not clocks: the benchmark's formerly scalar
queries build no ``VPbn`` and make no comparison, and no benchmark query
leaves a multi-context step on the scalar loop.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.vpbn import VPbn
from repro.dataguide.build import build_dataguide
from repro.obs.profile import build_profile, operators
from repro.query.ast import NodeTest
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.query.eval_virtual import FOREST, KEY, KEYED, VirtualNavigator
from repro.query.joins import NO_KERNEL, NO_ORDER
from repro.transform.materialize import materialize_to_store
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
#: ``parent`` / ``ancestor`` cut the context key (no physical root, so the
#: document node stays out of them).
COMPLETE = "book { title author { name } }"
#: ``born`` is a sibling of the inverted ``name`` *and* lives under the
#: same author: an incomplete name key (the author's) is a prefix of a
#: born key, the comparator weighs them on the components the name key
#: lacks, and the tree gets no order key.
COLLIDING = "lib.shelf.book.title { name { author } born }"


def _random_view(seed: int, spec_seed: int, **shape):
    document = random_document(seed, **shape)
    return document, random_spec(build_dataguide(document), spec_seed)


#: ``id -> (document, spec, whole view keyed? — None: whatever the gate says)``
VIEWS = {
    "inverting": (books_document(6, seed=3), INVERTING, True),
    "complete": (books_document(6, seed=8), COMPLETE, True),
    "duplicating": (dblp_document(6, seed=4), Q.DBLP_BY_AUTHOR.spec, False),
    "forest": (books_document(5, seed=5), FOREST_SPEC, True),
    "colliding": (library(5, shelves=2, books=3), COLLIDING, False),
    # root { root.a.c { root.a.c.d root } root.a }: the comparator is
    # cyclic on it (test_columnar_kernels.py)
    "recursive": (*_random_view(31, 1031, max_depth=5, max_children=4), False),
    **{
        f"random-{seed}": (
            *_random_view(seed, seed + 1000, max_depth=4, max_children=3),
            None,
        )
        for seed in (12, 29, 57, 64)
    },
}


def _names(spec: str) -> list[str]:
    words = spec.replace("{", " ").replace("}", " ").split()
    return sorted({word.split(".")[-1] for word in words if "*" not in word})


def _payload(result):
    return (result.to_xml(), result.values())


def _open(view: str):
    """``(engine over the view, engine over its materialization, vdoc)``."""
    document, spec, _ = VIEWS[view]
    engine = Engine()
    engine.load("d.xml", document)
    vdoc = engine.virtual("d.xml", spec)
    materialized = Engine()
    store, _ = materialize_to_store(vdoc, "m.xml")
    materialized.attach("m.xml", store)
    return engine, materialized, vdoc


# -- (a) the differential ----------------------------------------------------


@pytest.mark.parametrize("view", list(VIEWS))
def test_every_axis_agrees_on_every_arm(view, monkeypatch, each_codec):
    _, spec, expect_keyed = VIEWS[view]
    source = f'virtualDoc("d.xml", "{spec}")'
    names = _names(spec)
    for codec in each_codec():
        engine, materialized, vdoc = _open(view)
        keyed = VirtualNavigator()._order_key_fn(vdoc) is not None
        if expect_keyed is not None:
            assert keyed == expect_keyed, view
        answered = 0
        for context in ("//*", f"//{names[-1]}"):
            for axis in AXES:
                tests = ["*", "node()", *names[:2]]
                if axis != "attribute":
                    tests.append("text()")
                for test in tests:
                    path = f"{context}/{axis}::{test}"
                    where = f"{view} {codec} {path}"
                    batch = _payload(engine.execute(source + path))
                    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
                    scalar = _payload(engine.execute(source + path))
                    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
                    assert batch == scalar, f"batch != scalar: {where}"
                    sql = _payload(engine.execute(source + path, mode="sql"))
                    assert sql == scalar, f"sql != scalar: {where}"
                    answered += bool(batch[1])
                    if axis.startswith("ancestor") and test == "node()":
                        # The virtual ancestor axis stops at the roots; the
                        # stored one goes on to the document node.
                        continue
                    tree = _payload(
                        materialized.execute('doc("m.xml")' + path, mode="tree")
                    )
                    if keyed:
                        assert batch == tree, f"virtual != materialized: {where}"
                    elif axis not in ("following", "preceding"):
                        # Copies / broken chains: distinct values agree
                        # (DESIGN.md); `following` of a copy is defined on
                        # first-copy positions only (core/vpbn.py).
                        assert sorted(set(batch[1])) == sorted(set(tree[1])), where
        assert answered > 20, view  # the suite is not vacuous


# -- (b) the order each class produces is the materialized preorder ----------


def _order_class(vdoc, context_names, axis, test):
    vtypes = [
        vtype
        for vtype in vdoc.vguide.iter_vtypes()
        if vtype.name in context_names
    ]
    return VirtualNavigator().order_class(vdoc, vtypes, axis, test)


def _identities(items):
    return [(item.vtype.dotted(), item.node.pbn.components) for item in items]


def _first_copies(vdoc, keep) -> list:
    """The view's preorder (copies expanded the way the materialized
    document holds them), filtered, each virtual position once."""
    seen, out = set(), []
    for vnode, _ in vdoc.iter_preorder():
        identity = (vnode.vtype.dotted(), vnode.node.pbn.components)
        if keep(vnode) and identity not in seen:
            seen.add(identity)
            out.append(identity)
    return out


@pytest.mark.parametrize("view", list(VIEWS))
def test_order_keys_rise_along_the_materialized_preorder(view):
    # keyed: on every tree that has a key, the key of each node of the
    # materialized preorder is strictly above its predecessor's — key
    # order is the preorder, whatever types a step mixes.
    _, _, vdoc = _open(view)
    order_key, keyed = VirtualNavigator()._order_keys(vdoc)
    if VIEWS[view][2]:
        assert len(keyed) == len(vdoc.vguide.roots)
    keys = [
        order_key(vnode)
        for vnode, _ in vdoc.iter_preorder()
        if vnode.vtype.pbn.components[0] in keyed
    ]
    assert all(a < b for a, b in zip(keys, keys[1:])), view


def test_the_inverted_name_level_is_keyed():
    # `name` is not alone at its level (the title's text sits there too):
    # its incomplete key resolves to the full one, and a mixed-type step
    # merges by key into exactly the materialized sibling order.
    engine, _, vdoc = _open("inverting")
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
    engine, _, vdoc = _open("duplicating")
    name = lambda label: NodeTest("name", label)  # noqa: E731
    star, node = NodeTest("wildcard"), NodeTest("node")
    assert VirtualNavigator()._order_keys(vdoc)[1] == frozenset()
    # one type; one type per tree; two types of one (unkeyed) tree
    assert _order_class(vdoc, (), "descendant", name("article")) == KEY
    assert _order_class(vdoc, {"author"}, "child", name("article")) == KEY
    assert _order_class(vdoc, (), "descendant", name("author")) == FOREST
    assert _order_class(vdoc, {"author"}, "child", star) == FOREST
    assert _order_class(vdoc, {"author"}, "descendant", name("title")) == FOREST
    assert _order_class(vdoc, {"author"}, "child", node) == NO_ORDER
    assert _order_class(vdoc, {"article"}, "child", star) == NO_ORDER
    assert _order_class(vdoc, (), "descendant", star) == NO_ORDER
    source = f'virtualDoc("d.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    for path, keep in (
        # forest: the root runs, concatenated
        ("//author", lambda v: v.vtype.parent is None),
        ("//author/*", lambda v: v.vtype.level == 2 and not v.vtype.is_text),
        ("//author/descendant::title", lambda v: v.name == "title"),
        # key: each article once, where its first copy stands
        ("//author/article", lambda v: v.name == "article"),
        ("//article/year", lambda v: v.vtype.dotted().endswith("article.year")),
    ):
        result = engine.execute(source + path)
        assert _identities(result.items) == _first_copies(vdoc, keep), path


def test_forest_roots_concatenate():
    engine, _, vdoc = _open("forest")
    source = f'virtualDoc("d.xml", "{FOREST_SPEC}")'
    for path, keep in (
        ("//name", lambda v: v.name == "name"),
        ("//*", lambda v: not v.vtype.is_text and not v.vtype.is_attribute),
        ("//*/author", lambda v: v.name == "author"),
    ):
        result = engine.execute(source + path)
        assert _identities(result.items) == _first_copies(vdoc, keep), path


# -- observability: the step, not the view, declines — and says why ----------


def _step_rows(engine, query):
    _, trace = engine.explain_analyze(query)
    return {
        row.detail: row.attrs
        for row in operators(build_profile(trace))
        if row.name == "step"
    }


def test_mixed_type_steps_decline_per_step_with_the_reason():
    engine, _, _ = _open("duplicating")
    source = f'virtualDoc("d.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    rows = _step_rows(engine, f"{source}//author/article/node()")
    assert rows["child::article"]["kernel"] == "columnar"  # one type: by key
    assert rows["child::node()"]["kernel"] == "scalar"  # title | year | text
    assert rows["child::node()"]["reason"] == NO_ORDER
    # ... and a step with no virtual kernel is `axis`, whatever the view
    # (the parent's label was guessed from the view: non-linearizable-view).
    rows = _step_rows(engine, f"{source}//author/parent::node()")
    assert rows["descendant::author"]["kernel"] == "columnar"  # the document step
    assert rows["parent::node()"]["kernel"] == "scalar"
    assert rows["parent::node()"]["reason"] == NO_KERNEL

    engine, _, _ = _open("recursive")
    source = f'virtualDoc("d.xml", "{VIEWS["recursive"][1]}")'
    rows = _step_rows(engine, f"{source}//*/child::*")
    assert rows["child::*"]["kernel"] == "scalar"
    assert rows["child::*"]["reason"] == NO_ORDER
    rows = _step_rows(engine, f"{source}//*/child::d")  # one type: by key
    assert rows["child::d"]["kernel"] == "columnar"


def test_complete_cuts_run_parent_and_ancestor_by_key_truncation():
    engine, materialized, _ = _open("complete")
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
    engine, _, _ = _open("inverting")
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

    engine, _, _ = _open("duplicating")
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
