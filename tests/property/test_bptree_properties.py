"""Property tests for the paged value index against flat models.

(The module and test names predate the structure — they covered the
B+-tree the index used to wrap.)  Pages hold four entries here so small
generated inputs cross many page boundaries.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.pbn.codec import encode_key
from repro.pbn.number import Pbn
from repro.storage import value_index as value_index_module
from repro.storage.value_index import ValueEntry, ValueIndex
from repro.xmlmodel.nodes import NodeKind

small_pages = mock.patch.object(value_index_module, "PAGE_ENTRIES", 4)

keys = st.binary(min_size=1, max_size=6)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), keys, st.integers(0, 10**6)),
    max_size=200,
)


def _entry(position: int) -> ValueEntry:
    return ValueEntry(position, position + 1, 0, NodeKind.TEXT, position, position + 1)


def _spans(entry: ValueEntry) -> tuple:
    return (entry.start, entry.end, entry.content_start, entry.content_end)


def _check_pages(index: ValueIndex) -> None:
    assert index._firsts == [page.keys[0] for page in index._pages]
    assert all(0 < len(page.keys) <= 8 for page in index._pages)
    assert sum(len(page.keys) for page in index._pages) == len(index)


@small_pages
@settings(max_examples=100, deadline=None)
@given(operations)
def test_bptree_matches_dict_model(ops):
    """Insert / override / drop-by-prefix against a dict (no splice, so
    offsets are arbitrary and nothing shifts)."""
    index = ValueIndex()
    model: dict[bytes, ValueEntry] = {}
    for op, key, value in ops:
        if op == "delete":
            index = index.derive(0, 0, 0, drop_prefix=key)
            model = {k: e for k, e in model.items() if not k.startswith(key)}
        elif key in model:
            index = index.derive(0, 0, 0, overrides={key: _spans(_entry(value))})
            model[key] = _entry(value)
        else:
            index = index.derive(0, 0, 0, inserted=[(key, _entry(value))])
            model[key] = _entry(value)
        assert len(index) == len(model)
    assert list(index.items()) == sorted(model.items())
    _check_pages(index)


@small_pages
@settings(max_examples=50, deadline=None)
@given(st.sets(keys, min_size=1, max_size=100), keys, keys)
def test_bptree_range_scan_matches_model(all_keys, low, high):
    if low > high:
        low, high = high, low
    index = ValueIndex.from_items((key, _entry(i)) for i, key in enumerate(sorted(all_keys)))
    assert [k for k, _ in index.items(low, high)] == sorted(
        k for k in all_keys if low <= k < high
    )
    assert [k for k, _ in index.items(low)] == sorted(k for k in all_keys if low <= k)
    assert [k for k, _ in index.items(None, high)] == sorted(k for k in all_keys if k < high)


numbers = st.builds(lambda parts: Pbn(*parts), st.lists(st.integers(1, 4), min_size=1, max_size=4))


@small_pages
@settings(max_examples=50, deadline=None)
@given(st.sets(numbers, min_size=1, max_size=100), numbers)
def test_bptree_prefix_scan_matches_model(all_numbers, root):
    """``subtree`` is the byte-prefix range, i.e. the component-prefix
    subtree, and every present number is found by point lookup."""
    ordered = sorted(all_numbers)
    index = ValueIndex.build([(number, _entry(i)) for i, number in enumerate(ordered)])
    width = len(root.components)
    assert [number for number, _ in index.subtree(root)] == [
        number for number in ordered if number.components[:width] == root.components
    ]
    for i, number in enumerate(ordered):
        assert index.lookup(number) == _entry(i)
    assert (index.get(root) is not None) == (root in all_numbers)


@small_pages
@settings(max_examples=50, deadline=None)
@given(st.sets(keys, min_size=1, max_size=200), st.randoms(use_true_random=False))
def test_bulk_load_equivalent_to_inserts(unique_keys, rng):
    items = [(key, _entry(i)) for i, key in enumerate(sorted(unique_keys))]
    bulk = ValueIndex.from_items(items)
    shuffled = items[:]
    rng.shuffle(shuffled)
    incremental = ValueIndex()
    for pair in shuffled:
        incremental = incremental.derive(0, 0, 0, inserted=[pair])
    assert list(bulk.items()) == list(incremental.items()) == items
    _check_pages(bulk)
    _check_pages(incremental)


# ---------------------------------------------------------------------------
# derive == the per-entry splice rules applied to every entry
# ---------------------------------------------------------------------------


def _flat_derive(entries, cut_start, cut_end, delta, drop, overrides, stretch):
    """The rules of ``ValueIndex.derive`` over a flat list: what the old
    streaming pass did to every entry of the document."""
    out = []
    for key, entry in entries:
        start, end, type_id, kind, content_start, content_end = entry
        if drop is not None and key.startswith(drop):
            continue
        if key in overrides:
            start, end, content_start, content_end = overrides[key]
        elif key in stretch:
            end += delta
            content_start += delta if cut_end < content_start else 0
            content_end += delta
        elif start >= cut_start:
            start, end = start + delta, end + delta
            content_start, content_end = content_start + delta, content_end + delta
        out.append((key, ValueEntry(start, end, type_id, kind, content_start, content_end)))
    return out


ROOT = encode_key(Pbn(1))


def _group(ordinal: int, members: int, at: int) -> list:
    """A group head ``1.ordinal`` and its members ``1.ordinal.m``, ten
    characters each, laid out from offset ``at``."""
    numbers = [Pbn(1, ordinal)] + [Pbn(1, ordinal, m + 1) for m in range(members)]
    return [
        (encode_key(number), ValueEntry(at + 10 * i, at + 10 * i + 8, i % 3, NodeKind.ELEMENT, at + 10 * i + 2, at + 10 * i + 6))
        for i, number in enumerate(numbers)
    ]


@small_pages
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_derive_matches_per_entry_rules(groups, rng):
    """Chains of splice-shaped edits (replace a content range, drop a
    group, insert a group) under a root that always stretches: every
    version equals the flat model, and no earlier version changes."""
    flat = [(ROOT, ValueEntry(0, 10**6, 0, NodeKind.ELEMENT, 5, 10**6 - 5))]
    ordinal_of = {}  # group head key -> its ordinal under the root
    for g in range(groups):
        group = _group(1000 * (g + 1), rng.randrange(0, 7), flat[-1][1].start + 10)
        ordinal_of[group[0][0]] = 1000 * (g + 1)
        flat += group
    index = ValueIndex.from_items(flat)
    history = [(index, list(flat))]
    for _ in range(10):
        heads = [i for i, (key, _) in enumerate(flat) if key in ordinal_of]
        end_of_text = max([e.end for _, e in flat[1:]], default=8) + 2
        kind = rng.choice(["replace", "drop", "insert"]) if heads else "insert"
        drop, overrides, stretch, inserted = None, {}, {ROOT}, []
        if kind == "replace":
            leaves = [  # an entry with descendants is never a replace target
                i for i in range(1, len(flat))
                if i + 1 == len(flat) or not flat[i + 1][0].startswith(flat[i][0])
            ]
            position = rng.choice(leaves)
            key, entry = flat[position]
            cut_start, cut_end = entry.content_start, entry.content_end
            delta = rng.randrange(cut_start - cut_end, 12)
            overrides[key] = (entry.start, entry.end + delta, cut_start, cut_end + delta)
            stretch |= {k for k, _ in flat[:position] if key.startswith(k)}
        elif kind == "drop":
            at = rng.randrange(len(heads))
            drop = flat[heads[at]][0]
            cut_start = flat[heads[at]][1].start
            cut_end = flat[heads[at + 1]][1].start if at + 1 < len(heads) else end_of_text
            delta = cut_start - cut_end
        else:
            at = rng.randrange(len(heads) + 1)  # before this head, or last
            left = ordinal_of[flat[heads[at - 1]][0]] if at else 0
            right = ordinal_of[flat[heads[at]][0]] if at < len(heads) else left + 2000
            if right - left < 2:
                continue
            cut_start = cut_end = flat[heads[at]][1].start if at < len(heads) else end_of_text
            inserted = _group((left + right) // 2, rng.randrange(0, 12), cut_start)
            ordinal_of[inserted[0][0]] = (left + right) // 2
            delta = 10 * len(inserted)
        flat = sorted(
            _flat_derive(flat, cut_start, cut_end, delta, drop, overrides, stretch) + inserted
        )
        index = index.derive(cut_start, cut_end, delta, drop, overrides, frozenset(stretch), inserted)
        assert [e.start for _, e in flat] == sorted(e.start for _, e in flat)
        assert list(index.items()) == flat
        assert len(index) == len(flat)
        _check_pages(index)
        history.append((index, list(flat)))
    for version, snapshot in history:
        assert list(version.items()) == snapshot
