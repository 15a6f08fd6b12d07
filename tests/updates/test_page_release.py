"""The simulated disk under updates: dead heap versions free their pages."""

from __future__ import annotations

import gc
import random

from repro.pbn.number import Pbn
from repro.storage.store import DocumentStore
from repro.updates.mutations import apply_op, verify_store
from repro.updates.ops import InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.xmlmodel.nodes import NodeKind


def _retitle(rng: random.Random, store: DocumentStore, step: int) -> ReplaceText:
    book = rng.choice(store.document.root.children)
    text = next(n for n in book.iter_subtree() if n.kind is NodeKind.TEXT)
    return ReplaceText(text.pbn, f"title number {step}")


def test_three_hundred_updates_do_not_accumulate_pages():
    """Each update rewrites the heap from its cut to the end (≈ 6 pages
    here); with no release the manager ends up holding ≈ 13 + 6.4 × 300."""
    rng = random.Random(17)
    store = DocumentStore(books_document(300, seed=17))
    for step in range(300):
        op = (
            InsertSubtree(Pbn(1), f"<book><title>new {step}</title></book>")
            if step % 3 == 0
            else _retitle(rng, store, step)
        )
        store = apply_op(store, op).store  # the only reference to a version
    gc.collect()
    manager = store.page_manager
    assert manager.page_count <= 3 * store.heap.page_count
    assert manager._allocated > 300  # ids kept counting up: none was reused
    assert sorted(store.heap._page_ids) == store.heap._page_ids
    verify_store(store)


def test_pinned_version_keeps_reading_its_pages():
    rng = random.Random(5)
    store = DocumentStore(books_document(60, seed=5))
    for step in range(5):
        store = apply_op(store, _retitle(rng, store, step)).store
    pinned, text = store, store.heap.read_all()
    for step in range(50):
        store = apply_op(store, _retitle(rng, store, step)).store
    gc.collect()
    pinned.buffer_pool.clear()  # read the simulated disk, not cached frames
    assert pinned.heap.read_all() == text
    verify_store(pinned)
    held = set(pinned.heap._page_ids) | set(store.heap._page_ids)
    assert store.page_manager.page_count <= len(held) + store.heap.page_count
