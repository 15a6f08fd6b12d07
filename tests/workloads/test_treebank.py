"""Tests for the treebank workload: deep recursion end to end."""

import pytest

from repro.core.virtual_document import VirtualDocument
from repro.dataguide.build import build_dataguide
from repro.query.engine import Engine
from repro.workloads.treebank import treebank_document
from repro.xmlmodel.serializer import serialize


def test_structure_is_recursive():
    document = treebank_document(sentences=20, max_depth=8, seed=1)
    guide = build_dataguide(document)
    # Recursion makes one type per path: np under np under s etc.
    nested = [t for t in guide.iter_types() if t.path.count("np") >= 2]
    assert nested, "expected recursive np nesting"
    depth = max(t.length for t in guide.iter_types())
    assert depth >= 6


def test_deterministic():
    a = serialize(treebank_document(sentences=5, seed=9))
    b = serialize(treebank_document(sentences=5, seed=9))
    assert a == b


def test_identity_view_on_deep_recursion():
    document = treebank_document(sentences=15, max_depth=9, seed=2)
    vdoc = VirtualDocument.from_spec(document, "treebank { ** }")
    assert serialize(vdoc.materialize()) == serialize(document)
    # Identity level arrays are 1..depth per type.
    for vtype in vdoc.vguide.iter_vtypes():
        assert vtype.level_array == tuple(range(1, vtype.original.length + 1))


def test_flatten_words_to_sentences():
    """Hoist all words (at any nesting depth) directly under sentences —
    many case-1 edges over a recursive schema."""
    document = treebank_document(sentences=10, max_depth=7, seed=3)
    engine = Engine()
    engine.load("treebank.xml", document)
    total_words = engine.execute('count(doc("treebank.xml")//w)').items[0]
    per_sentence = engine.execute(
        'for $s in doc("treebank.xml")//s return count($s//w)'
    ).items
    assert sum(per_sentence) == total_words


def test_queries_match_materialized_on_treebank():
    from repro.transform.materialize import materialize_to_store

    document = treebank_document(sentences=10, max_depth=6, seed=4)
    engine = Engine()
    engine.load("treebank.xml", document)
    spec = "s { w }"  # every word directly under its sentence? w is
    # ambiguous across depths -- the contextual resolver needs one type,
    # so qualify to the shallowest word type instead:
    guide = engine.store("treebank.xml").guide
    word_types = [t for t in guide.types_named("w")]
    assert len(word_types) > 1  # recursion made many word types
    shallow = min(word_types, key=lambda t: t.length)
    spec = f"s {{ {shallow.dotted()} }}"
    vdoc = engine.virtual("treebank.xml", spec)
    mat_engine = Engine()
    store, _ = materialize_to_store(vdoc, "m.xml")
    mat_engine.attach("m.xml", store)
    virtual = engine.execute(f'virtualDoc("treebank.xml", "{spec}")//s/w')
    materialized = mat_engine.execute('doc("m.xml")//s/w')
    assert sorted(set(virtual.values())) == sorted(set(materialized.values()))


def test_sibling_ordinals():
    document = treebank_document(sentences=5, max_depth=5, seed=5)
    vdoc = VirtualDocument.from_spec(document, "treebank { ** }")
    root = vdoc.roots()[0]
    for position, child in enumerate(vdoc.children(root), start=1):
        assert vdoc.sibling_ordinal(child) == position
    assert vdoc.sibling_ordinal(root) == 1


def test_sibling_ordinal_unreachable():
    document = treebank_document(sentences=3, seed=6)
    vdoc = VirtualDocument.from_spec(document, "treebank { ** }")
    other = treebank_document(sentences=3, seed=7)
    from repro.core.virtual_document import VNode

    foreign = VNode(vdoc.vguide.roots[0], other.root)
    with pytest.raises(ValueError):
        vdoc.sibling_ordinal(foreign)
