"""Heap file: the document text spread over pages.

The store keeps each document "as a long string" (paper Section 6) split
across fixed-size pages.  :meth:`HeapFile.read_range` is the only read path:
it touches exactly the pages the range overlaps, through the buffer pool, so
the stats block records the true logical I/O of value retrieval — the cost
the value index is designed to minimize.
"""

from __future__ import annotations

import weakref

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.pages import PageManager


class HeapFile:
    """An immutable string stored across pages.

    :param manager: page allocator / simulated disk.
    :param buffer_pool: cache in front of the disk (shared across files).
    :param shared_ids: leading pages taken over from an older version.
    :param tail: the text after them, written to freshly allocated pages.

    The heap holds one reference on each of its pages for as long as it is
    alive; the manager drops a page once no heap version lists it.
    """

    def __init__(
        self,
        manager: PageManager,
        buffer_pool: BufferPool,
        shared_ids: list[int],
        tail: str,
    ):
        self.manager = manager
        self.buffer_pool = buffer_pool
        size = manager.page_size
        self._page_ids = list(shared_ids)
        for start in range(0, len(tail), size):
            page_id = manager.allocate()
            manager.write(page_id, tail[start : start + size])
            self._page_ids.append(page_id)
        self._length = len(shared_ids) * size + len(tail)
        manager.retain(self._page_ids)
        weakref.finalize(self, manager.release, tuple(self._page_ids)).atexit = False

    @classmethod
    def store(cls, text: str, manager: PageManager, buffer_pool: BufferPool) -> "HeapFile":
        """Write ``text`` page by page and return the heap file."""
        return cls(manager, buffer_pool, [], text)

    @classmethod
    def splice(
        cls,
        base: "HeapFile",
        cut_start: int,
        cut_end: int,
        replacement: str,
    ) -> "HeapFile":
        """A new heap equal to ``base`` with ``[cut_start, cut_end)``
        replaced by ``replacement`` — sharing every page that lies wholly
        before the cut.

        This is the update subsystem's copy-on-write primitive: page ids
        are global to the (shared) :class:`PageManager`, so two heap
        versions can own overlapping page lists; the old version keeps
        reading its pages untouched while the new version rewrites only
        from the first dirtied page onward.
        """
        if not 0 <= cut_start <= cut_end <= base._length:
            raise StorageError(
                f"splice [{cut_start}, {cut_end}) out of bounds for heap of "
                f"length {base._length}"
            )
        manager = base.manager
        size = manager.page_size
        shared = cut_start // size  # pages wholly before the first change
        tail = (
            base.read_range(shared * size, cut_start)
            + replacement
            + base.read_range(cut_end, base._length)
        )
        return cls(manager, base.buffer_pool, base._page_ids[:shared], tail)

    def shared_page_prefix(self, other: "HeapFile") -> int:
        """How many leading pages this heap shares (by id) with ``other``
        — how much of an update is copy-on-write rather than rewrite
        (the cost behind the benchmark's ``updates.apply_ms`` row)."""
        count = 0
        for mine, theirs in zip(self._page_ids, other._page_ids):
            if mine != theirs:
                break
            count += 1
        return count

    @property
    def length(self) -> int:
        """Total characters stored."""
        return self._length

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def read_range(self, start: int, end: int) -> str:
        """Read characters ``[start, end)`` through the buffer pool.

        :raises StorageError: if the range is out of bounds.
        """
        if start < 0 or end > self._length or start > end:
            raise StorageError(
                f"range [{start}, {end}) out of bounds for heap of length {self._length}"
            )
        if start == end:
            return ""
        size = self.manager.page_size
        first = start // size
        last = (end - 1) // size
        parts: list[str] = []
        for index in range(first, last + 1):
            page = self.buffer_pool.get(self._page_ids[index])
            page_start = index * size
            parts.append(page[max(start - page_start, 0) : end - page_start])
        text = "".join(parts)
        self.manager.stats.bytes_read += len(text)
        return text

    def read_ranges(self, spans) -> list[str]:
        """:meth:`read_range` of every ``(start, end)`` span, in input
        order, fetching each page once per call through the buffer pool —
        the batch writer's read path (same ``bytes_read`` as one call per
        span, at most one buffer-pool request per distinct page).

        :raises StorageError: if a range is out of bounds.
        """
        size = self.manager.page_size
        length = self._length
        get, page_ids = self.buffer_pool.get, self._page_ids
        fetched: dict[int, str] = {}
        out: list[str] = []
        total = 0
        for start, end in spans:
            if start < 0 or end > length or start > end:
                raise StorageError(
                    f"range [{start}, {end}) out of bounds for heap of length {length}"
                )
            index = start // size
            page_start = index * size
            if start == end:
                text = ""
            elif end <= page_start + size:  # the common case: one page
                page = fetched.get(index)
                if page is None:
                    page = fetched[index] = get(page_ids[index])
                text = page[start - page_start : end - page_start]
            else:
                pieces = []
                for index in range(index, (end - 1) // size + 1):
                    page = fetched.get(index)
                    if page is None:
                        page = fetched[index] = get(page_ids[index])
                    page_start = index * size
                    pieces.append(page[max(start - page_start, 0) : end - page_start])
                text = "".join(pieces)
            total += len(text)
            out.append(text)
        self.manager.stats.bytes_read += total
        return out

    def read_all(self) -> str:
        """The full document text (a whole-heap scan)."""
        return self.read_range(0, self._length)
