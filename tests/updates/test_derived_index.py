"""The value index under updates: derived versions against a rebuild.

``apply_op`` derives the next value index page by page (shared pages, per
page offset bases, a handful of rewritten pages).  The oracle here is the
index bulk-built from the derived document's own serialization — what a
fresh load of the same tree would index.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest

from repro.pbn import codec
from repro.pbn.number import Pbn
from repro.storage import value_index as value_index_module
from repro.storage.store import DocumentStore, index_tree
from repro.storage.value_index import PAGE_ENTRIES, ValueIndex
from repro.updates import mutations
from repro.updates.mutations import apply_op, verify_store
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.xmlmodel.nodes import NodeKind
from repro.xmlmodel.parser import parse_document

WORDS = ["ash", "b&b", "c<d", 'q"t', "elm", "fir > oak", "yew"]


def rebuilt_items(store: DocumentStore) -> list:
    """What a bulk build over ``store``'s document would hold."""
    guide, mapping = store.guide.copy()
    types_by_id = [mapping[guide_type] for guide_type in store.types_by_id]
    indexed = index_tree(store.document.children, guide, types_by_id, {}, {})
    return list(ValueIndex.from_columns(indexed.keys, indexed.entries).items())


def _fragment(rng: random.Random, nodes: int) -> str:
    """A one-rooted fragment of about ``nodes`` nodes: attributes, text,
    empty elements and nesting."""
    parts = [f'<f n="{rng.choice(WORDS[:1] + WORDS[4:5])}">']
    budget = nodes - 2
    while budget > 0:
        shape = rng.randrange(4)
        if shape == 0:
            parts.append("<e/>")
            budget -= 1
        elif shape == 1:
            parts.append(f"<g>{rng.choice(['ash', 'elm', 'yew'])}</g>")
            budget -= 2
        elif shape == 2:
            parts.append(f'<h k="v{budget}" m="w"><i>t{budget}</i></h>')
            budget -= 5
        else:
            parts.append(f"<j><j><e/>x{budget}</j></j>")
            budget -= 4
    parts.append("</f>")
    return "".join(parts)


def random_op(rng: random.Random, store: DocumentStore, big: int):
    """One seeded update against ``store``: a sibling-position insert
    (append, ``before`` or ``after`` — the index choice of
    ``test_ordpath_mass._random_sequence``, over real parents), a delete
    of any non-root node, or a text / attribute replace."""
    nodes = list(store.document.root.iter_subtree())
    kind = rng.choice(["insert", "insert", "delete", "replace"])
    if kind == "delete" and len(nodes) > 1:
        return DeleteSubtree(rng.choice(nodes[1:]).pbn)
    values = [n for n in nodes if n.kind is not NodeKind.ELEMENT]
    if kind == "replace" and values:
        # One in four is the empty string: it leaves a zero-width span,
        # which a later splice at the same offset must place by key order.
        return ReplaceText(rng.choice(values).pbn, " ".join(rng.sample(WORDS, rng.randrange(0, 4))))
    parent = rng.choice([n for n in nodes if n.kind is NodeKind.ELEMENT])  # empty ones too
    children = parent.children
    attributes = sum(c.kind is NodeKind.ATTRIBUTE for c in children)
    index = rng.randrange(attributes, len(children) + 1)
    fragment = _fragment(rng, big if rng.random() < 0.15 else rng.randrange(2, 9))
    if index < len(children):
        return InsertSubtree(parent.pbn, fragment, before=children[index].pbn)
    if children and rng.random() < 0.5:  # incl. after=<the last attribute>
        return InsertSubtree(parent.pbn, fragment, after=children[-1].pbn)
    return InsertSubtree(parent.pbn, fragment)


def check_against_rebuild(store: DocumentStore) -> None:
    assert list(store.value_index.items()) == rebuilt_items(store)
    assert len(store.value_index) == len(store._node_by_key)
    verify_store(store)


SMALL = '<r a="1"><s>one</s><t b="2" c="3"><u/>two<u>three</u></t><v/>tail</r>'


@pytest.mark.parametrize("seed", range(200))
def test_random_sequences_match_rebuild_small_pages(seed):
    """Four entries a page: a 20-node document spans five pages, so every
    op crosses page boundaries; an 18-node fragment is larger than 2·B and
    deleting it again spans several pages."""
    rng = random.Random(seed)
    with mock.patch.object(value_index_module, "PAGE_ENTRIES", 4):
        store = DocumentStore(parse_document(SMALL, "t.xml"), page_size=64)
        for _ in range(12):
            store = apply_op(store, random_op(rng, store, big=18)).store
            check_against_rebuild(store)
            assert all(len(p.keys) <= 8 for p in store.value_index._pages)


@pytest.mark.parametrize("seed", range(6))
def test_random_sequences_match_rebuild_full_pages(seed):
    """The real page size over books(40) (≈ 480 nodes, 8 pages), with
    fragments past 2·B nodes and the multi-page deletes they enable."""
    rng = random.Random(1000 + seed)
    store = DocumentStore(books_document(40, seed=seed))
    for _ in range(25):
        store = apply_op(store, random_op(rng, store, big=2 * PAGE_ENTRIES + 40)).store
        check_against_rebuild(store)
    assert any(isinstance(c, Fraction) for n in store._node_by_key for c in n)  # careted


def test_multi_page_delete_and_oversized_fragment():
    """The two shapes named in the issue, deterministically."""
    store = DocumentStore(books_document(60, seed=3))
    pages = store.value_index.page_count
    wide = "<shelf>" + "".join(f"<slot><id>{i}</id></slot>" for i in range(60)) + "</shelf>"
    grown = apply_op(store, InsertSubtree(Pbn(1), wide, before=Pbn(1, 30))).store
    check_against_rebuild(grown)
    assert len(grown.value_index) == len(store.value_index) + 181  # > 2·B: the page split
    assert grown.value_index.page_count > pages
    (shelf,) = [c for c in grown.document.root.children if c.tag == "shelf"]
    shrunk = apply_op(grown, DeleteSubtree(shelf.pbn)).store
    check_against_rebuild(shrunk)
    assert list(shrunk.value_index.items()) == list(store.value_index.items())
    check_against_rebuild(grown)  # the version in between is untouched


def test_snapshot_isolation_across_ten_derivations():
    """Every lookup on version k answers the same before and after ten
    further versions are derived from it (pages are shared, never edited;
    bases belong to a version)."""
    rng = random.Random(7)
    store = DocumentStore(books_document(30, seed=7))
    for _ in range(5):  # version k itself has re-based pages
        store = apply_op(store, random_op(rng, store, big=150)).store
    numbers = [Pbn(*components) for components in store._node_by_key]
    before = {number: store.value_index.lookup(number) for number in numbers}
    items, text = list(store.value_index.items()), store.heap.read_all()
    pages, bases = list(store.value_index._pages), list(store.value_index._bases)
    contents = [(list(p.keys), list(p.entries)) for p in pages]
    head = store
    for step in range(10):  # a chain of successors, and siblings off version k
        base = store if step % 3 == 2 else head
        head = apply_op(base, random_op(rng, base, big=150)).store
    assert {number: store.value_index.lookup(number) for number in numbers} == before
    assert list(store.value_index.items()) == items and store.heap.read_all() == text
    assert all(a is b for a, b in zip(store.value_index._pages, pages))
    assert store.value_index._bases == bases
    assert [(p.keys, p.entries) for p in pages] == contents
    for number, entry in before.items():
        assert store.value_index.span(number) == (entry.start, entry.end)
        assert store.value_of(number) == text[entry.start : entry.end]
    verify_store(store)


def test_replace_shares_pages_and_keeps_keys_encoded():
    """A text replace in the middle of books(300) rewrites a handful of
    pages and never round-trips a key through ``Pbn``: the parent commit
    decoded and re-encoded all 3,584 keys inside this ``apply_op``."""
    store = DocumentStore(books_document(300, seed=1))
    book = store.document.root.children[150]
    text = next(n for n in book.iter_subtree() if n.kind is NodeKind.TEXT)
    calls = {"encode_key": 0, "decode_key": 0}

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    with (
        mock.patch.object(mutations, "encode_key", counting("encode_key", codec.encode_key)),
        mock.patch.object(value_index_module, "encode_key", counting("encode_key", codec.encode_key)),
        mock.patch.object(value_index_module, "decode_key", counting("decode_key", codec.decode_key)),
    ):
        derived = apply_op(store, ReplaceText(text.pbn, "a rather longer title than before")).store
    assert calls["encode_key"] + calls["decode_key"] <= 12, calls
    shared = derived.value_index.shared_pages(store.value_index)
    assert shared >= 0.9 * store.value_index.page_count
    assert sum(derived.value_index._bases) != 0  # pages after the cut are re-based, not rewritten
    check_against_rebuild(derived)
