"""Set-operator order: one key, whatever the view.

``Evaluator.document_order`` (and with it ``|`` / ``except`` /
``intersect`` and the per-item loop's multi-context steps) orders each
container by a plain key: stored and constructed nodes by their PBN
components, a virtual document's nodes one run per virtual type merged by
the navigator's first-copy order key.  No pairwise comparator is left on
the path.

Pinned here over generated documents and views — keyed, forest,
duplicating, recursive and the generated views 63 / 118 — plus
constructed trees, one to three containers per draw, items drawn from
path results, shuffled and repeated:

* the answer is the oracle's: containers in first-sight order, inside a
  view each node where its first copy stands in the materialized
  preorder;
* wherever the Section 5 comparator (``vpbn.compare_virtual_order``) is a
  total order on the drawn items, that is also its sort.
"""

from __future__ import annotations

import random
from functools import cmp_to_key

import pytest

from repro.core import vpbn
from repro.core.virtual_document import VNode
from repro.dataguide.build import build_dataguide
from repro.query.engine import Engine
from repro.query.eval import Evaluator, _identity
from repro.query.items import VirtualDocItem
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.querygen import SET_OPERATOR_SHAPES, GeneratedQuery
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.serializer import serialize


def _treegen(seed: int):
    document = random_document(seed, max_depth=5, max_children=4)
    return serialize(document), random_spec(build_dataguide(document), seed + 1000)


#: ``uri -> (document text, view specs)``.  Generated views 63 and 118
#: mix types of a tree on which the Section 5 comparator is not a total
#: order; 31 is recursive.
DOCUMENTS = {
    "g31.xml": (_treegen(31)[0], [_treegen(31)[1]]),
    "g63.xml": (_treegen(63)[0], [_treegen(63)[1]]),
    "g118.xml": (_treegen(118)[0], [_treegen(118)[1]]),
    "g7.xml": (_treegen(7)[0], [_treegen(7)[1]]),
    "dblp.xml": (serialize(dblp_document(12, seed=5)), [Q.DBLP_BY_AUTHOR.spec]),
    "book.xml": (
        serialize(books_document(10, seed=3)),
        [Q.BOOKS_INVERT.spec, Q.BOOKS_CASE2.spec, "title { author { name } } name { author }"],
    ),
}

#: Documents each of whose views the Section 5 comparator orders totally:
#: every incomplete prefix names one instance and no sibling type can
#: collide with it.  On the others it is total only on draws that take
#: at most one type per vDataGuide tree.
TOTAL = {"book.xml", "g7.xml"}

#: Paths whose results make the item pools (several types per pool).
PATHS = ("//*", "//node()", "//@*", "//*/*", "//*/text()", "/*/*")


def _sources() -> list[str]:
    sources = []
    for uri, (_, specs) in DOCUMENTS.items():
        sources.append(f'doc("{uri}")')
        sources.extend(f'virtualDoc("{uri}", "{spec}")' for spec in specs)
    return sources


@pytest.fixture(scope="module")
def pools():
    """``(engine, {source: [item lists]})`` — each source's handle and
    its path results, constructed trees among them."""
    engine = Engine()
    for uri, (text, _) in DOCUMENTS.items():
        engine.load(uri, text)
    found: dict[str, list] = {}
    for source in _sources():
        lists = [engine.execute(source).items]
        lists.extend(engine.execute(source + path).items for path in PATHS)
        found[source] = [items for items in lists if items]
    for uri in ("g63.xml", "book.xml"):
        constructed = f'(<c>{{ doc("{uri}")/*/* }}<d/></c>)'
        found[constructed] = [
            engine.execute(constructed + path).items for path in ("//*", "//node()")
        ]
    return engine, found


def _distinct(engine: Engine, items: list) -> tuple[Evaluator, list]:
    """A fresh evaluator and the distinct items, their containers pinned
    in first-sight order."""
    evaluator = _fresh(engine)
    unique: dict = {}
    for item in items:
        if _identity(item) not in unique:
            unique[_identity(item)] = item
            engine.container_index(evaluator._container_of(item))
    return evaluator, list(unique.values())


def _first_copy_order(engine: Engine, items: list) -> list:
    """The oracle: containers in first-sight order; inside a view the
    position of each node's first copy in the materialized preorder."""
    evaluator, unique = _distinct(engine, items)
    ranks: dict = {}

    def rank(vnode: VNode) -> int:
        vdoc = vnode._vdoc
        if vdoc is None:
            return 0  # a container of its own
        if id(vdoc) not in ranks:
            table = ranks[id(vdoc)] = {}
            for copy, _ in vdoc.iter_preorder():
                table.setdefault((id(copy.vtype), id(copy.node)), len(table))
        return ranks[id(vdoc)][id(vnode.vtype), id(vnode.node)]

    def key(item):
        index = engine.container_index(evaluator._container_of(item))
        if isinstance(item, VirtualDocItem):
            return index, -1
        if isinstance(item, VNode):
            return index, rank(item)
        return index, evaluator._order_path(item)

    return sorted(unique, key=key)


def _comparator_order(engine: Engine, items: list) -> list:
    """The Section 5 comparator sort: containers in first-sight order,
    then ``vpbn.compare_virtual_order`` inside a view."""
    evaluator, unique = _distinct(engine, items)

    def compare(a, b) -> int:
        ka = engine.container_index(evaluator._container_of(a))
        kb = engine.container_index(evaluator._container_of(b))
        if ka != kb:
            return -1 if ka < kb else 1
        if isinstance(a, VirtualDocItem) or isinstance(b, VirtualDocItem):
            return isinstance(b, VirtualDocItem) - isinstance(a, VirtualDocItem)
        if isinstance(a, VNode):
            return vpbn.compare_virtual_order(a.vpbn, b.vpbn)
        pa, pb = evaluator._order_path(a), evaluator._order_path(b)
        return (pa > pb) - (pa < pb)

    return sorted(unique, key=cmp_to_key(compare))


def _comparator_is_total(items: list) -> bool:
    """True when every view either is one of :data:`TOTAL` or gives the
    draw at most one type per vDataGuide tree (one type: component
    order; one per tree: forest order)."""
    by_view: dict = {}
    for item in items:
        if isinstance(item, VNode) and item._vdoc is not None:
            by_view.setdefault(id(item._vdoc), (item._vdoc, set()))[1].add(item.vtype)
    for vdoc, vtypes in by_view.values():
        trees = [vtype.pbn.components[0] for vtype in vtypes]
        if vdoc.document.uri not in TOTAL and len(trees) != len(set(trees)):
            return False
    return True


def _draw(rng: random.Random, found: dict) -> list:
    sources = rng.sample(sorted(found), rng.randint(1, 3))
    items: list = []
    for source in sources:
        for pool in rng.sample(found[source], rng.randint(1, min(2, len(found[source])))):
            items.extend(rng.sample(pool, rng.randint(1, min(12, len(pool)))))
    items.extend(rng.choices(items, k=rng.randint(0, 4)))  # repeats
    rng.shuffle(items)
    return items


def _fresh(engine: Engine) -> Evaluator:
    engine._containers.clear()
    engine._container_refs.clear()
    return Evaluator(engine)


@pytest.mark.parametrize("seed", range(12))
def test_key_order_is_the_comparator_order(pools, seed):
    engine, found = pools
    rng = random.Random(seed)
    total = partial = 0
    for _ in range(40):
        items = _draw(rng, found)
        ordered, items_in = _fresh(engine)._ordered((items,))
        assert items_in == len(items)
        assert ordered == _first_copy_order(engine, items)
        if _comparator_is_total(items):
            assert ordered == _comparator_order(engine, items)
            total += 1
        else:
            partial += 1
    assert total > 0 and partial > 0


def test_every_source_orders_by_key_alone_unless_its_view_is_unkeyed(pools, monkeypatch):
    # No view is unkeyed: the first-copy key covers every tree of every
    # view, and no source calls the comparator.
    engine, found = pools

    def refused(*args):
        raise AssertionError("the comparator is not on the ordering path")

    monkeypatch.setattr(vpbn, "compare_virtual_order", refused)
    for source, lists in found.items():
        items = [item for pool in lists for item in pool]
        rng = random.Random(source)
        ordered = _fresh(engine).document_order(items)
        assert ordered == _first_copy_order(engine, items), source
        # one container: whatever order its items come in (several
        # containers order by first sight, as they come)
        for _ in range(3 if source.startswith("virtualDoc") else 0):
            rng.shuffle(items)
            assert _fresh(engine).document_order(items) == ordered, source


def test_a_union_chain_is_one_order(pools, monkeypatch):
    engine, _ = pools
    calls = []
    original = Evaluator._ordered

    def counted(self, groups):
        out = original(self, groups)
        calls.append(out[1])
        return out

    monkeypatch.setattr(Evaluator, "_ordered", counted)
    result = engine.execute(
        'doc("book.xml")//title | doc("dblp.xml")//title | doc("book.xml")//name '
        '| (doc("g7.xml")//* except doc("g7.xml")/*)'
    )
    # the except operand, then the four-operand union — not three unions
    assert len(calls) == 2
    assert calls[-1] >= len(result) > 0


def test_a_virtual_node_without_its_view_is_a_container_of_its_own(pools):
    engine, found = pools
    vnodes = [
        item for item in found[f'virtualDoc("g7.xml", "{DOCUMENTS["g7.xml"][1][0]}")'][1]
        if isinstance(item, VNode)
    ]
    detached = VNode(vnodes[0].vtype, vnodes[0].node)
    items = [vnodes[-1], detached, vnodes[1]]
    ordered, _ = _fresh(engine)._ordered((items,))
    assert ordered == _comparator_order(engine, items) == _first_copy_order(engine, items)
    assert ordered == [*_fresh(engine).document_order([vnodes[-1], vnodes[1]]), detached]


@pytest.mark.parametrize("mode", ["tree", "indexed", "sql"])
def test_containers_order_by_first_sight_in_the_operands(pools, mode):
    """A step over one container pins no container index: a positional
    step's per-item loop orders ``dblp.xml``'s titles before the union
    meets the ``book.xml`` document or the constructed ``<u/>``, and the
    union still puts those first, as they appear — in every strategy,
    and as a sharded merge by source ordinal would."""
    engine, _ = pools
    result = engine.execute('doc("book.xml") | doc("dblp.xml")//title[last()]', mode=mode)
    assert result.items[0] is engine.document("book.xml")
    assert len(result) > 1
    result = engine.execute('<u/> | doc("dblp.xml")//title[last()]', mode=mode)
    assert result.to_xml().startswith("<u/><title>")


@pytest.mark.parametrize("shape", range(len(SET_OPERATOR_SHAPES)))
def test_every_generated_set_operator_shape_agrees_across_strategies(pools, shape):
    """Each shape the differential suites draw, over one document and
    over two, answers the same bytes under every stored strategy and
    through a view beside its stored document under ``virtual`` / ``sql``."""
    engine, _ = pools
    query = GeneratedQuery(
        SET_OPERATOR_SHAPES[shape].format(
            path="{source}//author", other="{second}//title/../author[1]", name="name",
            source="{source}",
        )
    )
    view = f'virtualDoc("book.xml", "{Q.BOOKS_INVERT.spec}")'
    for source, second, modes in (
        ('doc("book.xml")', None, ("tree", "indexed", "sql")),
        ('doc("book.xml")', 'doc("dblp.xml")', ("tree", "indexed", "sql")),
        (view, 'doc("book.xml")', (None, "sql")),
    ):
        text = query.text(source, second)
        answers = {mode: engine.execute(text, mode=mode).to_xml() for mode in modes}
        assert len(set(answers.values())) == 1, text
        assert answers[modes[0]] or second is not None, text
