"""Unit tests for the page, buffer, and heap layers."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pages import PageManager
from repro.storage.stats import StorageStats


def test_page_allocate_write_read():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    page = manager.allocate()
    manager.write(page, "hello")
    assert manager.read(page) == "hello"
    assert stats.page_writes == 1
    assert stats.page_reads == 1


def test_page_size_enforced():
    manager = PageManager(page_size=16)
    page = manager.allocate()
    with pytest.raises(StorageError):
        manager.write(page, "x" * 17)


def test_unallocated_page_rejected():
    manager = PageManager()
    with pytest.raises(StorageError):
        manager.read(0)


def test_tiny_page_size_rejected():
    with pytest.raises(StorageError):
        PageManager(page_size=8)


def test_buffer_hits_and_misses():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    pool = BufferPool(manager, capacity=2)
    pages = [manager.allocate() for _ in range(3)]
    for page in pages:
        manager.write(page, f"p{page}")
    pool.get(pages[0])
    pool.get(pages[0])
    assert stats.page_reads == 1
    assert stats.buffer_hits == 1


def test_buffer_lru_eviction():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    pool = BufferPool(manager, capacity=2)
    pages = [manager.allocate() for _ in range(3)]
    for page in pages:
        manager.write(page, f"p{page}")
    pool.get(pages[0])
    pool.get(pages[1])
    pool.get(pages[2])  # evicts pages[0]
    assert len(pool) == 2
    reads_before = stats.page_reads
    pool.get(pages[0])  # miss again
    assert stats.page_reads == reads_before + 1


def test_buffer_clear():
    manager = PageManager(page_size=16)
    pool = BufferPool(manager, capacity=4)
    page = manager.allocate()
    manager.write(page, "x")
    pool.get(page)
    pool.clear()
    assert len(pool) == 0


def test_buffer_requires_capacity():
    with pytest.raises(ValueError):
        BufferPool(PageManager(), capacity=0)


def test_heap_store_and_read_range():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    pool = BufferPool(manager, capacity=4)
    text = "abcdefghijklmnopqrstuvwxyz" * 3  # 78 chars over 5 pages
    heap = HeapFile.store(text, manager, pool)
    assert heap.length == len(text)
    assert heap.page_count == 5
    assert heap.read_range(0, 5) == text[:5]
    assert heap.read_range(30, 50) == text[30:50]  # crosses pages
    assert heap.read_all() == text


def test_heap_counts_bytes_read():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    pool = BufferPool(manager, capacity=4)
    heap = HeapFile.store("x" * 40, manager, pool)
    heap.read_range(0, 10)
    assert stats.bytes_read == 10


def test_heap_range_validation():
    manager = PageManager(page_size=16)
    pool = BufferPool(manager, capacity=4)
    heap = HeapFile.store("hello", manager, pool)
    with pytest.raises(StorageError):
        heap.read_range(0, 6)
    with pytest.raises(StorageError):
        heap.read_range(-1, 2)
    with pytest.raises(StorageError):
        heap.read_range(3, 2)
    assert heap.read_range(2, 2) == ""


def test_heap_reads_only_touched_pages():
    stats = StorageStats()
    manager = PageManager(page_size=16, stats=stats)
    pool = BufferPool(manager, capacity=8)
    heap = HeapFile.store("x" * 160, manager, pool)  # 10 pages
    stats.reset()
    heap.read_range(0, 10)  # one page
    assert stats.page_reads == 1
    pool.clear()
    stats.reset()
    heap.read_range(15, 17)  # straddles two pages
    assert stats.page_reads == 2


def test_stats_snapshot_and_delta():
    stats = StorageStats()
    stats.page_reads = 5
    snap = stats.snapshot()
    assert snap["page_reads"] == 5
    other = stats.copy()
    stats.page_reads = 9
    delta = stats - other
    assert delta.page_reads == 4
    stats.reset()
    assert stats.page_reads == 0


def test_pages_are_dropped_with_their_last_heap_version():
    """A page lives while some heap version lists it; ids are never reused."""
    import gc

    manager = PageManager(page_size=16)
    pool = BufferPool(manager, capacity=4)
    base = HeapFile.store("a" * 16 + "b" * 16 + "c" * 16, manager, pool)
    assert base._page_ids == [0, 1, 2] and manager.page_count == 3
    edited = HeapFile.splice(base, 40, 41, "XY")  # shares pages 0 and 1
    assert edited._page_ids == [0, 1, 3, 4] and manager.page_count == 5
    del base
    gc.collect()
    assert manager.page_count == 4  # page 2 went with the old version
    with pytest.raises(StorageError):
        manager.read(2)
    assert edited.read_all() == "a" * 16 + "b" * 16 + "c" * 8 + "XY" + "c" * 7
    again = HeapFile.splice(edited, 0, 1, "Z")
    assert again._page_ids == [5, 6, 7, 8]  # fresh ids, not the freed 2
    del edited
    gc.collect()
    assert manager.page_count == 4
    assert again.read_all() == "Z" + "a" * 15 + "b" * 16 + "c" * 8 + "XY" + "c" * 7


def test_release_during_retain_is_deferred():
    """A finalizer may fire while the manager is inside ``retain`` (a
    collection can start at any allocation): ``release`` only queues."""
    manager = PageManager(page_size=16)
    first, second = manager.allocate(), manager.allocate()
    manager.retain([first, second])
    manager.retain([first])

    class ReleasingIds(list):
        def __iter__(self):
            manager.release([first, second])  # re-entrant call
            return super().__iter__()

    manager.retain(ReleasingIds([second]))
    assert manager.page_count == 2  # first: 2 - 1, second: 1 + 1 - 1
    manager.release([first, second])
    assert manager.page_count == 0
