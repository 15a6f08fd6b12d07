"""Set-operator order by key = order by comparator.

``Evaluator.document_order`` (and with it ``|`` / ``except`` /
``intersect`` and the per-item loop's multi-context steps) orders each
container by a plain key: stored and constructed nodes by their PBN
components, a virtual document's nodes one run per virtual type merged by
the navigator.  The Section 5 comparator (``Evaluator._order_cmp``) stays
as the reference and as the fallback where no key decides.

Pinned here over generated documents and views — keyed, intact, forest,
duplicating and the unkeyed generated views 63 / 118 — plus constructed
trees, one to three containers per draw, items drawn from path results,
shuffled and repeated:

* wherever the key path is taken, its answer is the comparator sort the
  parent produced (first-sight container pinning, then the sort);
* it declines exactly where some vDataGuide tree holds several of the
  drawn virtual types and is neither intact nor keyed.
"""

from __future__ import annotations

import random
from functools import cmp_to_key

import pytest

from repro.core.virtual_document import VNode
from repro.dataguide.build import build_dataguide
from repro.query.engine import Engine
from repro.query.eval import Evaluator, _identity
from repro.query.eval_virtual import VirtualNavigator
from repro.query.joins import NO_ORDER
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
#: mix types of a tree without an order key; 31 is recursive.
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


def _comparator_order(evaluator: Evaluator, items: list) -> list:
    """The comparator sort: distinct items, containers pinned in first-
    sight order, then ``sorted`` under ``_order_cmp``."""
    unique: dict = {}
    for item in items:
        if _identity(item) not in unique:
            unique[_identity(item)] = item
            evaluator._container_key(item)
    return sorted(unique.values(), key=cmp_to_key(evaluator._order_cmp))


def _expected_reason(items: list):
    """``NO_ORDER`` when some view tree holds several of the items' types
    and is neither intact nor keyed, else ``None``."""
    navigator = VirtualNavigator()
    by_view: dict = {}
    for item in items:
        if isinstance(item, VNode):
            by_view.setdefault(id(item._vdoc), (item._vdoc, {}))[1][id(item.vtype)] = item.vtype
    for vdoc, vtypes in by_view.values():
        per_tree: dict = {}
        for vtype in vtypes.values():
            tree = vtype.pbn.components[0]
            per_tree[tree] = per_tree.get(tree, 0) + 1
        intact = navigator._intact(vdoc)[1]
        keyed = navigator._order_keys(vdoc)[1]
        if any(
            count > 1 and tree not in intact and tree not in keyed
            for tree, count in per_tree.items()
        ):
            return NO_ORDER
    return None


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
    taken = declined = 0
    for _ in range(40):
        items = _draw(rng, found)
        ordered, reason, items_in = _fresh(engine)._ordered((items,))
        assert items_in == len(items)
        assert reason == _expected_reason(items)
        assert ordered == _comparator_order(_fresh(engine), items)
        if reason is None:
            taken += 1
        else:
            declined += 1
    assert taken > 0 and declined > 0


def test_every_source_orders_by_key_alone_unless_its_view_is_unkeyed(pools):
    engine, found = pools
    declined = set()
    for source, lists in found.items():
        items = [item for pool in lists for item in pool]
        reason = _fresh(engine)._ordered((items,))[1]
        assert reason == _expected_reason(items), source
        if reason is not None:
            declined.add(source.split('"')[1])
        assert _fresh(engine).document_order(items) == _comparator_order(
            _fresh(engine), items
        )
    # the duplicating view and generated views 63 / 118 have trees with
    # several types and no order key; the rest order by key
    assert {"dblp.xml", "g63.xml", "g118.xml"} <= declined
    assert "book.xml" not in declined


def test_a_union_chain_is_one_order(pools, monkeypatch):
    engine, _ = pools
    calls = []
    original = Evaluator._ordered

    def counted(self, groups):
        out = original(self, groups)
        calls.append(out[2])
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
    ordered, reason, _ = _fresh(engine)._ordered((items,))
    assert reason is None
    assert ordered == _comparator_order(_fresh(engine), items)
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
