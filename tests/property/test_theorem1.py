"""Theorem 1, machine-checked: the vPBN predicates against the materialized
virtual hierarchy.

For random documents and random vDataGuides, every virtual axis predicate
computed from (number, level array) pairs is compared with the relationship
read off the physically materialized transformed tree.  Two documented
subtleties shape the assertions:

* **Copies** — one original node may occupy several virtual positions; a
  predicate holds iff *some* pair of copies is so related (DESIGN.md,
  duplication caveat), so the oracle quantifies over the provenance map.
* **Existential chains** — when a spec relates an ancestor/descendant pair
  through an intermediate type whose instances are not pinned by the
  descendant's number (``VGuide.chain_exact()`` is ``False``), the pairwise
  predicates are *complete but not exact*: they report every materialized
  relationship, and may additionally relate pairs whose intermediate chain
  is broken (e.g. ``title { author { publisher } }`` on a book without
  authors).  Exactness is asserted for chain-exact vguides — the common
  case — and completeness always.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import vpbn as V
from repro.core.virtual_document import VirtualDocument
from repro.dataguide.build import build_dataguide
from repro.workloads.treegen import random_document, random_spec

_HIERARCHICAL = [
    "self",
    "parent",
    "child",
    "ancestor",
    "descendant",
    "ancestor-or-self",
    "descendant-or-self",
]
_ORDERING = ["preceding", "following", "preceding-sibling", "following-sibling"]


def _tree_relations(x, y):
    relations = set()
    x_ancestors = list(x.iter_ancestors())
    y_ancestors = list(y.iter_ancestors())
    if x is y:
        relations.update(("self", "ancestor-or-self", "descendant-or-self"))
    if x in y_ancestors:
        relations.update(("ancestor", "ancestor-or-self"))
        if y.parent is x:
            relations.add("parent")
    if y in x_ancestors:
        relations.update(("descendant", "descendant-or-self"))
        if x.parent is y:
            relations.add("child")
    from repro.xmlmodel.nodes import NodeKind

    attribute_involved = (
        x.kind is NodeKind.ATTRIBUTE or y.kind is NodeKind.ATTRIBUTE
    )
    if (
        x is not y
        and x.parent is y.parent
        and x.parent is not None
        and not attribute_involved  # attributes have no siblings (XPath)
    ):
        siblings = x.parent.children
        if siblings.index(x) < siblings.index(y):
            relations.add("preceding-sibling")
        else:
            relations.add("following-sibling")
    if x is not y and "ancestor" not in relations and "descendant" not in relations:
        # Document order via PBN of the materialized (renumbered) tree.
        if x.pbn.components < y.pbn.components:
            relations.add("preceding")
        else:
            relations.add("following")
    return relations


def _build_case(seed: int):
    document = random_document(seed, max_depth=4, max_children=3)
    guide = build_dataguide(document)
    spec = random_spec(guide, seed, max_roots=2, max_children=2, max_depth=3)
    vdoc = VirtualDocument.from_spec(document, spec)
    vguide = vdoc.vguide
    _, provenance = vdoc.materialize_with_provenance()
    copies: dict = {}
    for built, vnode in provenance.items():
        key = (id(vnode.vtype), id(vnode.node))
        copies.setdefault(key, (vnode, []))[1].append(built)
    return spec, vguide, list(copies.values())


def _sample_pairs(entities, seed, count=40):
    rng = random.Random(seed)
    return [(rng.choice(entities), rng.choice(entities)) for _ in range(count)]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_theorem1_hierarchical_axes(seed):
    spec, vguide, entities = _build_case(seed)
    if not entities:
        return
    exact = vguide.chain_exact()
    for (vx, built_x), (vy, built_y) in _sample_pairs(entities, seed):
        px, py = vx.vpbn, vy.vpbn
        expected = set()
        for bx in built_x:
            for by in built_y:
                expected |= _tree_relations(bx, by) & set(_HIERARCHICAL)
        for axis in _HIERARCHICAL:
            actual = V.VIRTUAL_AXIS_PREDICATES[axis](px, py)
            if exact:
                assert actual == (axis in expected), (
                    f"spec={spec!r} axis={axis} x={px!r} y={py!r} "
                    f"expected={sorted(expected)}"
                )
            elif axis in expected:
                # Completeness: a materialized relationship is always seen.
                assert actual, (
                    f"spec={spec!r} axis={axis} x={px!r} y={py!r} missed"
                )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_theorem1_ordering_axes(seed):
    spec, vguide, entities = _build_case(seed)
    if not entities:
        return
    if not vguide.chain_exact():
        # Number-only ordering cannot see through existential chains: a
        # node's position may hinge on an intermediate ancestor whose
        # number is unrelated to its own (see VGuide.chain_exact).  No
        # guarantee is claimed there; the query engine navigates chains
        # instead of comparing numbers, so it is unaffected.
        return
    duplication_free = all(len(built) == 1 for _, built in entities)
    for (vx, built_x), (vy, built_y) in _sample_pairs(entities, seed):
        px, py = vx.vpbn, vy.vpbn
        union = set()
        for bx in built_x:
            for by in built_y:
                union |= _tree_relations(bx, by) & set(_ORDERING)
        for axis in _ORDERING:
            actual = V.VIRTUAL_AXIS_PREDICATES[axis](px, py)
            if duplication_free:
                assert actual == (axis in union), (
                    f"spec={spec!r} axis={axis} x={px!r} y={py!r} "
                    f"expected={sorted(union)}"
                )
            elif actual:
                # Soundness under duplication: the predicate may only
                # assert relations some copy pair actually has.
                assert axis in union, (
                    f"spec={spec!r} axis={axis} x={px!r} y={py!r} unsound"
                )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_virtual_order_matches_materialized_preorder(seed):
    """compare_virtual_order sorts duplication-free, chain-exact cases
    exactly like the materialized document's preorder."""
    spec, vguide, entities = _build_case(seed)
    if (
        not entities
        or not vguide.chain_exact()
        or any(len(built) > 1 for _, built in entities)
    ):
        return
    by_preorder = sorted(entities, key=lambda e: e[1][0].pbn.components)
    from functools import cmp_to_key

    by_vpbn = sorted(
        entities,
        key=cmp_to_key(
            lambda a, b: V.compare_virtual_order(a[0].vpbn, b[0].vpbn)
        ),
    )
    assert [(id(e[0].vtype), id(e[0].node)) for e in by_vpbn] == [
        (id(e[0].vtype), id(e[0].node)) for e in by_preorder
    ], f"spec={spec!r}"
