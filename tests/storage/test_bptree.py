"""Unit tests for the paged value index.

The module (and most test names) predate the structure: they covered the
B+-tree that :class:`~repro.storage.value_index.ValueIndex` used to wrap.
The index is now sorted pages under a directory, edited only by
``derive``; "insert", "replace" and "delete" below are the splice-free
derivations (nothing shifts) that add, override and drop keys.
"""

import random

import pytest

from repro.errors import StorageError
from repro.pbn.codec import encode_key
from repro.pbn.number import Pbn
from repro.storage import value_index as value_index_module
from repro.storage.stats import StorageStats
from repro.storage.value_index import PAGE_ENTRIES, ValueEntry, ValueIndex
from repro.xmlmodel.nodes import NodeKind


def _number(i: int) -> Pbn:
    return Pbn(1, i + 1)


def _key(i: int) -> bytes:
    return encode_key(_number(i))


def _entry(position: int) -> ValueEntry:
    return ValueEntry(position, position + 1, 0, NodeKind.TEXT, position, position + 1)


def _with(index: ValueIndex, *pairs) -> ValueIndex:
    """A version that also holds ``pairs``; no splice, so nothing shifts."""
    return index.derive(0, 0, 0, inserted=pairs)


def check_invariants(index: ValueIndex) -> None:
    """Directory, page bounds and size agree with the page contents."""
    keys = [key for page in index._pages for key in page.keys]
    assert keys == sorted(set(keys))
    assert len(keys) == len(index)
    assert index._firsts == [page.keys[0] for page in index._pages]
    assert len(index._bases) == len(index._pages) == index.page_count
    for page in index._pages:
        assert 0 < len(page.keys) == len(page.entries)
        assert len(page.keys) <= 2 * value_index_module.PAGE_ENTRIES
    assert [key for key, _ in index.items()] == keys


@pytest.fixture
def small_pages(monkeypatch):
    """Four entries a page, so a few dozen keys exercise many pages."""
    monkeypatch.setattr(value_index_module, "PAGE_ENTRIES", 4)


def test_insert_and_get(small_pages):
    index = ValueIndex()
    for i in range(50):
        index = _with(index, (_key(i), _entry(i * 10)))
    for i in range(50):
        assert index.lookup(_number(i)) == _entry(i * 10)
        assert index.span(_number(i)) == (i * 10, i * 10 + 1)
    assert index.get(_number(99)) is None
    with pytest.raises(StorageError):
        index.lookup(_number(99))
    with pytest.raises(StorageError):
        index.span(_number(99))
    with pytest.raises(StorageError):
        _with(index, (_key(7), _entry(0)))  # an inserted key must be new


def test_insert_replaces():
    index = ValueIndex.from_items([(_key(0), _entry(1))])
    replaced = index.derive(0, 0, 0, overrides={_key(0): (2, 5, 3, 4)})
    assert replaced.lookup(_number(0)) == ValueEntry(2, 5, 0, NodeKind.TEXT, 3, 4)
    assert len(replaced) == 1
    assert index.lookup(_number(0)) == _entry(1)  # the old version is untouched


def test_contains(small_pages):
    index = ValueIndex.from_items([(_key(i), _entry(i)) for i in range(1, 40, 2)])
    for i in range(40):  # below the first key, between keys, above the last
        assert (index.get(_number(i)) is not None) == (i % 2 == 1)


def test_random_insert_order_scan_sorted(small_pages):
    index = ValueIndex()
    order = list(range(200))
    random.Random(3).shuffle(order)
    for i in order:
        index = _with(index, (_key(i), _entry(i)))
        assert index.page_count >= len(index) / 8
    assert [k for k, _ in index.items()] == [_key(i) for i in range(200)]
    check_invariants(index)


def test_scan_bounds(small_pages):
    index = ValueIndex.from_items([(_key(i), _entry(i)) for i in range(100)])
    starts = [e.start for _, e in index.items(_key(10), _key(20))]
    assert starts == list(range(10, 20))
    assert [e.start for _, e in index.items(None, _key(3))] == [0, 1, 2]
    assert [e.start for _, e in index.items(_key(97), None)] == [97, 98, 99]
    assert list(index.items(_key(100), None)) == []
    assert list(index.items(b"", _key(0))) == []


def test_prefix_scan():
    numbers = [Pbn(1), Pbn(1, 1), Pbn(1, 1, 1), Pbn(1, 2), Pbn(1, 10), Pbn(2)]
    index = ValueIndex.build([(n, _entry(i)) for i, n in enumerate(numbers)])
    assert [str(n) for n, _ in index.subtree(Pbn(1, 1))] == ["1.1", "1.1.1"]
    assert [str(n) for n, _ in index.subtree(Pbn(1))] == ["1", "1.1", "1.1.1", "1.2", "1.10"]
    assert [n for n, _ in index.subtree_all()] == numbers
    assert list(index.subtree(Pbn(3))) == []


def test_prefix_scan_all_ff():
    index = ValueIndex.from_items(
        [(b"\xfe", _entry(0)), (b"\xff\xff", _entry(1)), (b"\xff\xff\x01", _entry(2))]
    )
    assert [e.start for _, e in index.items(b"\xff\xff", None)] == [1, 2]
    # A prefix with no successor drops through to the end of the index.
    remaining = index.derive(0, 0, 0, drop_prefix=b"\xff\xff")
    assert [key for key, _ in remaining.items()] == [b"\xfe"]


def test_delete(small_pages):
    numbers = [Pbn(1)] + [Pbn(1, i) for i in range(1, 31)] + [Pbn(1, 7, 1), Pbn(1, 7, 2)]
    numbers.sort()
    index = ValueIndex.build([(n, _entry(i)) for i, n in enumerate(numbers)])
    dropped = index.derive(0, 0, 0, drop_prefix=encode_key(Pbn(1, 7)))
    assert len(dropped) == len(numbers) - 3
    assert dropped.get(Pbn(1, 7)) is None and dropped.get(Pbn(1, 7, 2)) is None
    assert dropped.get(Pbn(1, 6)) is not None and dropped.get(Pbn(1, 8)) is not None
    again = dropped.derive(0, 0, 0, drop_prefix=encode_key(Pbn(1, 7)))
    assert list(again.items()) == list(dropped.items())
    assert len(index) == len(numbers)  # the old version still has them
    check_invariants(dropped)


def test_bulk_load_matches_inserts():
    items = [(_key(i), _entry(i)) for i in range(500)]
    loaded = ValueIndex.from_items(items)
    assert len(loaded) == 500
    assert list(loaded.items()) == items
    check_invariants(loaded)
    assert loaded.lookup(_number(123)) == _entry(123)
    incremental = ValueIndex()
    for pair in items:
        incremental = _with(incremental, pair)
    assert list(incremental.items()) == items
    # A bulk-loaded index derives further versions like any other.
    grown = _with(loaded, (_key(1000), _entry(1000)))
    assert grown.lookup(_number(1000)) == _entry(1000)
    check_invariants(grown)


def test_bulk_load_empty():
    index = ValueIndex.from_items([])
    assert len(index) == 0 and index.page_count == 0
    assert list(index.items()) == []
    assert list(index.subtree(Pbn(1))) == []
    assert index.get(Pbn(1)) is None
    assert len(index.derive(0, 0, 5)) == 0


def test_bulk_load_rejects_unsorted():
    with pytest.raises(StorageError):
        ValueIndex.from_items([(b"b", _entry(1)), (b"a", _entry(2))])
    with pytest.raises(StorageError):
        ValueIndex.from_items([(b"a", _entry(1)), (b"a", _entry(2))])


def test_pages_pack_and_split():
    """Bulk load packs pages full; an edited page splits only past twice
    the build size and an emptied one disappears."""
    items = [(_key(i * 1000), _entry(i * 1000)) for i in range(10 * PAGE_ENTRIES)]
    index = ValueIndex.from_items(items)
    assert index.page_count == 10
    assert {len(page.keys) for page in index._pages} == {PAGE_ENTRIES}
    crowd = [(_key(5 + i), _entry(5 + i)) for i in range(PAGE_ENTRIES)]
    grown = _with(index, *crowd)  # all land in page 0: 2 * B entries, no split
    assert grown.page_count == 10 and len(grown._pages[0].keys) == 2 * PAGE_ENTRIES
    split = _with(grown, (_key(1), _entry(1)))
    assert split.page_count == 12  # 129 entries -> 64 + 64 + 1
    check_invariants(split)
    assert split.shared_pages(index) == 9
    emptied = split.derive(0, 0, 0, drop_prefix=encode_key(Pbn(1)))  # every key
    assert len(emptied) == 0 and emptied.page_count == 0


def test_stats_counted():
    stats = StorageStats()
    index = ValueIndex.build([(_number(i), _entry(i)) for i in range(200)], stats)
    assert stats.index_probes == 0 and stats.index_range_scans == 0
    index.lookup(_number(3))
    index.get(_number(500))
    index.span(_number(4))
    assert stats.index_probes == 3  # one per point lookup, hit or miss
    list(index.items())
    list(index.subtree(Pbn(1)))
    list(index.subtree_all())
    assert stats.index_range_scans == 3  # one per scan, however many pages
    assert stats.index_probes == 3
    derived = index.derive(50, 50, 7)
    assert derived.stats is stats
