"""Page layer: a simulated disk of fixed-size pages.

Pages hold slices of the stored document text (see
:class:`~repro.storage.heap.HeapFile`).  The manager is deliberately dumb —
allocation, raw read/write and a reference count per page — so all caching
policy lives in the buffer pool and all layout policy in the heap.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

from repro.errors import StorageError
from repro.storage.stats import StorageStats

DEFAULT_PAGE_SIZE = 4096


class PageManager:
    """A simulated disk: fixed-size pages under ids that are never reused.

    Heap versions derived copy-on-write share pages by id, so the manager
    counts, per page, the heap versions that list it (:meth:`retain` /
    :meth:`release`) and drops a page's text when the last one is gone.

    :param page_size: page capacity in characters (the heap stores text).
    :param stats: counter block charged for every disk read/write.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, stats: StorageStats | None = None):
        if page_size < 16:
            raise StorageError(f"page size {page_size} is too small")
        self.page_size = page_size
        self.stats = stats if stats is not None else StorageStats()
        self._pages: dict[int, str] = {}
        self._references: dict[int, int] = {}
        self._allocated = 0
        self._released: deque = deque()  # id batches awaiting _reclaim
        self._lock = threading.Lock()

    @property
    def page_count(self) -> int:
        """Pages currently held (allocated and not yet dropped)."""
        with self._lock:
            self._reclaim()
            return len(self._pages)

    def allocate(self) -> int:
        """Allocate an empty page and return its id."""
        with self._lock:
            page_id = self._allocated
            self._allocated += 1
            self._pages[page_id] = ""
        return page_id

    def write(self, page_id: int, data: str) -> None:
        """Write a full page image (charged as one page write)."""
        self._check(page_id)
        if len(data) > self.page_size:
            raise StorageError(
                f"data of length {len(data)} exceeds page size {self.page_size}"
            )
        self._pages[page_id] = data
        self.stats.page_writes += 1

    def read(self, page_id: int) -> str:
        """Read a page image (charged as one page read)."""
        self._check(page_id)
        self.stats.page_reads += 1
        return self._pages[page_id]

    def retain(self, page_ids: Iterable[int]) -> None:
        """Count one more heap version referencing each page."""
        with self._lock:
            self._reclaim()
            references = self._references
            for page_id in page_ids:
                references[page_id] = references.get(page_id, 0) + 1

    def release(self, page_ids: Iterable[int]) -> None:
        """Undo one :meth:`retain`.  Runs from heap finalizers — at any
        point of any thread, possibly inside :meth:`retain` itself — so it
        only queues the batch; the next retain / page count applies it."""
        self._released.append(page_ids)

    def _reclaim(self) -> None:
        references = self._references
        while self._released:
            for page_id in self._released.popleft():
                remaining = references[page_id] - 1
                if remaining:
                    references[page_id] = remaining
                else:
                    del references[page_id]
                    del self._pages[page_id]

    def _check(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise StorageError(f"page {page_id} is not allocated")
