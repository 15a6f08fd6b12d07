"""The type index: DataGuide type -> its nodes' numbers in document order.

"There will usually be an index to quickly look up nodes of a given type"
(paper Section 4.3); PBN numbers act as the logical keys.  The index is a
posting list per type, sorted in document order, with binary-searched
prefix-range scans — the workhorse of both the PBN-indexed and the virtual
query evaluators (a virtual child step is one range scan here).

Crucially for the paper's argument: this index survives a *virtual*
transformation untouched, whereas materialize-and-renumber has to rebuild
it before an indexed query can run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.obs.trace import span_add
from repro.pbn.columnar import Column, subtree_bound
from repro.pbn.number import Pbn
from repro.pbn.succinct import build_column
from repro.storage.stats import StorageStats


class TypeIndex:
    """Posting lists of PBN numbers keyed by Type ID."""

    def __init__(self, stats: StorageStats | None = None):
        self.stats = stats if stats is not None else StorageStats()
        self._postings: dict[int, list[tuple[int, ...]]] = {}
        # Lazy per-type Column views over the posting lists (shared spine,
        # zero copy) used by the batch merge-join kernels.  Invalidation is
        # per type: a mutation drops only the touched type's column.
        self._columns: dict[int, Column] = {}

    @classmethod
    def from_postings(
        cls, postings: dict, stats: StorageStats | None = None
    ) -> "TypeIndex":
        """An index over ``postings`` (Type ID -> component tuples in
        document order), taken as they are."""
        index = cls(stats)
        index._postings = postings
        return index

    def append(self, type_id: int, number: Pbn) -> None:
        """Add a number to a type's posting list.  Numbers must arrive in
        document order (they do when loading a document front to back)."""
        self._columns.pop(type_id, None)
        self._postings.setdefault(type_id, []).append(number.components)

    def postings(self, type_id: int) -> Sequence[tuple[int, ...]]:
        """The type's posting list itself (no copy, no scan counted) — a
        virtual view navigates it in place.  Read-only for callers: a
        published index never mutates a list, updates copy it first
        (:meth:`derived`)."""
        return self._postings.get(type_id, ())

    def column(self, type_id: int) -> Column | None:
        """The type's keys as a :class:`~repro.pbn.columnar.Column`
        (built lazily through the codec registry — bit-packed when the
        keys allow it, a raw tuple view otherwise), or ``None`` for a
        type with no postings.  Encoded columns are immutable snapshots;
        the posting list stays the mutable source of truth, and every
        mutation path drops the column before touching the list.  Each
        build adds the representation's footprint to
        ``stats.column_bytes`` (a cumulative bytes-built counter, read
        by the benchmark's ``pbn.column_bytes_per_node`` row)."""
        column = self._columns.get(type_id)
        if column is None:
            postings = self._postings.get(type_id)
            if not postings:
                return None
            column = build_column(postings)
            self.stats.column_bytes += column.nbytes
            self._columns[type_id] = column
        return column

    def derived(
        self, touched: Iterable[int], stats: StorageStats | None = None
    ) -> "TypeIndex":
        """A copy-on-write successor: posting lists for ``touched`` type
        ids are copied (safe to :meth:`insert`/:meth:`remove` on the new
        index), every other list is shared with this index.  Columns ride
        along for untouched types and are dropped for touched ones —
        updates to a type invalidate only that type's column."""
        index = TypeIndex(stats if stats is not None else self.stats)
        index._postings = dict(self._postings)
        index._columns = dict(self._columns)
        for type_id in touched:
            index._postings[type_id] = list(index._postings.get(type_id, ()))
            index._columns.pop(type_id, None)
        return index

    def insert(self, type_id: int, number: Pbn) -> None:
        """Insert one number into a (copied) posting list, keeping it in
        document order."""
        self._columns.pop(type_id, None)
        insort(self._postings.setdefault(type_id, []), number.components)

    def remove(self, type_id: int, number: Pbn) -> None:
        """Remove one number from a (copied) posting list."""
        postings = self._postings.get(type_id, [])
        position = bisect_left(postings, number.components)
        if position >= len(postings) or postings[position] != number.components:
            raise StorageError(f"no posting for {number} under type {type_id}")
        self._columns.pop(type_id, None)
        del postings[position]

    def count(self, type_id: int) -> int:
        """Number of nodes of the type."""
        return len(self._postings.get(type_id, ()))

    def numbers(self, type_id: int) -> Iterator[Pbn]:
        """All numbers of the type, in document order."""
        self.stats.index_range_scans += 1
        span_add("index.range_scans")
        for components in self._postings.get(type_id, ()):
            yield Pbn(*components)

    def prefix_range(
        self, type_id: int, prefix: Sequence[int]
    ) -> Iterator[Pbn]:
        """Numbers of the type whose first ``len(prefix)`` components equal
        ``prefix`` — e.g. the type's instances inside one subtree, or the
        virtual children of a node (prefix = the shared lca components)."""
        self.stats.index_range_scans += 1
        span_add("index.range_scans")
        postings = self._postings.get(type_id)
        if not postings:
            return
        key = tuple(prefix)
        low = bisect_left(postings, key)
        # subtree_bound, not "last + 1": a careted rational sibling like
        # 5/2 sits between 2 and 3 and must not leak into 2's subtree.
        high = bisect_left(postings, subtree_bound(key), low) if key else len(postings)
        for components in postings[low:high]:
            yield Pbn(*components)

    def type_ids(self) -> list[int]:
        return list(self._postings)

    def __len__(self) -> int:
        return sum(len(postings) for postings in self._postings.values())
