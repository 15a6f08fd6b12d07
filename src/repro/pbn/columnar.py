"""Columnar PBN key storage: per-type, document-ordered key columns.

The paper reduces every axis test to *number comparisons*; this module
stores the numbers the way a column store would so whole context sets can
be answered with binary searches over one flat, sorted spine instead of a
predicate call per (candidate, context) pair.

A :class:`Column` wraps a type's posting list — the component tuples of
every node of one (Data)Guide type, in document order, which for tuples is
exactly sorted order.  The wrapped list is *shared by reference* with the
type index / virtual document that owns it (building a column copies
nothing); the column adds:

* the fixed component ``width`` of the type (every node of a guide type
  sits at one original depth, so all keys have equal length — the
  invariant the ``preceding`` kernel's prefix-exclusion relies on);
* bisect helpers phrased in subtree terms (:meth:`prefix_bounds`,
  :meth:`row_of`), built on :func:`subtree_bound`.

**Fraction safety.**  Update operations mint rational components, so the
upper bound of a subtree scan must *not* be computed with ``last + 1``: a
careted sibling ``5/2`` sits strictly between ``2`` and ``3`` and would
leak into the range.  :func:`subtree_bound` appends an infinite sentinel
component instead — ``key + (inf,)`` is greater than every extension of
``key`` and smaller than everything after the subtree, for any mix of
integer and rational components.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

#: Sentinel strictly greater than any PBN component (ints and positive
#: Fractions both compare below it), used to bound subtree ranges.
TOP = float("inf")

Key = tuple

def subtree_bound(key: Key) -> Key:
    """The exclusive upper bound of ``key``'s subtree: sorted keys ``k``
    with ``key <= k < subtree_bound(key)`` are exactly ``key`` and its
    extensions (fraction-safe — no ``+ 1`` on the last component)."""
    return key + (TOP,)


class Column:
    """A type's keys in document order, with bisect kernel primitives.

    :param keys: sorted component tuples; held by reference (the caller's
        posting list *is* the column spine — do not mutate it while the
        column is alive; owners drop the column instead).
    """

    __slots__ = ("keys", "width", "_nbytes")

    def __init__(self, keys: Sequence[Key]) -> None:
        self.keys = keys
        width = len(keys[0]) if keys else 0
        for key in keys:
            if len(key) != width:
                width = -1  # ragged: kernels needing a fixed width bail
                break
        self.width = width

    def __len__(self) -> int:
        return len(self.keys)

    # -- bisect primitives ---------------------------------------------------

    def lower(self, key: Key, lo: int = 0, hi: Optional[int] = None) -> int:
        """First row >= ``key``."""
        return bisect_left(self.keys, key, lo, len(self.keys) if hi is None else hi)

    def prefix_bounds(
        self, prefix: Key, lo: int = 0, hi: Optional[int] = None
    ) -> tuple[int, int]:
        """Half-open row range of keys starting with ``prefix`` (the
        subtree run; the whole column for an empty prefix)."""
        if hi is None:
            hi = len(self.keys)
        if not prefix:
            return (lo, hi)
        low = bisect_left(self.keys, prefix, lo, hi)
        high = bisect_left(self.keys, subtree_bound(prefix), low, hi)
        return (low, high)

    def row_of(self, key: Key) -> int:
        """Exact row of ``key``, or ``-1`` when absent."""
        keys = self.keys
        row = bisect_left(keys, key)
        if row < len(keys) and keys[row] == key:
            return row
        return -1

    def bounds(self, low_key: Key, high_key: Key) -> tuple[int, int]:
        """Half-open row range of keys in ``[low_key, high_key)`` — the
        rank/select form of a key-range scan (both ends route through
        :meth:`lower`, so encoded subclasses answer it from the packed
        domain)."""
        low = self.lower(low_key)
        return (low, self.lower(high_key, low))

    # -- bulk run primitives -------------------------------------------------

    def prefix_runs(
        self, prefixes: Sequence[Key]
    ) -> tuple[list[tuple[int, int]], int]:
        """One ``(low, high)`` run per prefix (sorted ascending, equal
        length, distinct — the kernels' contract), found with a moving
        cursor so each bisect searches a shrinking window.  Returns
        ``(bounds, range_scans)``.  Encoded subclasses override this with
        a single packed-domain sweep."""
        bounds: list[tuple[int, int]] = []
        append = bounds.append
        cursor = 0
        for prefix in prefixes:
            low, high = self.prefix_bounds(prefix, cursor)
            cursor = high
            append((low, high))
        return bounds, len(prefixes)

    def key_runs(self, bounds: Sequence[tuple[int, int]]) -> list[Key]:
        """Concatenated keys of the ``[low, high)`` runs — the bulk-decode
        hook: encoded subclasses amortize bucket location and decode setup
        across all runs instead of paying them per tiny slice."""
        keys = self.keys
        out: list[Key] = []
        extend = out.extend
        for low, high in bounds:
            extend(keys[low:high])
        return out

    # -- space accounting ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Heap footprint of this representation, in bytes.  For the raw
        tuple column that is the spine's slots plus each key tuple
        (component int objects are shared/interned and deliberately *not*
        counted, so raw sizes err small and encoded reduction factors err
        conservative).  Encoded subclasses report their actual buffers."""
        try:
            cached = self._nbytes
        except AttributeError:
            cached = None
        if cached is None:
            keys = self.keys
            cached = 56 + 8 * len(keys)
            if self.width > 0 and len(keys):
                cached += sys.getsizeof(keys[0]) * len(keys)
            else:
                cached += sum(sys.getsizeof(key) for key in keys)
            self._nbytes = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({len(self.keys)} keys, width={self.width})"


class ValueColumn:
    """A content projection for the CAS index: ``(value, rank)`` pairs
    sorted by value, where ``rank`` is the row in the owning type's
    structural :class:`Column` (so a value range scan yields rank runs
    that translate straight back to PBN keys).

    One projection holds values of one comparable kind — all-float or
    all-string — so bisect comparisons never mix types.  Every comparison
    operator maps to at most two contiguous runs over the sorted spine.
    """

    __slots__ = ("values", "ranks")

    def __init__(self, pairs: list) -> None:
        pairs.sort()
        self.values = [value for value, _ in pairs]
        self.ranks = [rank for _, rank in pairs]

    def __len__(self) -> int:
        return len(self.values)

    def run_bounds(self, op: str, value) -> tuple:
        """Half-open ``(lo, hi)`` runs over the value-sorted spine whose
        values satisfy ``spine[i] <op> value`` — one run for ordered
        comparisons, two for ``!=``."""
        values = self.values
        total = len(values)
        low = bisect_left(values, value)
        high = bisect_right(values, value, low)
        if op == "=":
            return ((low, high),)
        if op == "!=":
            return ((0, low), (high, total))
        if op == "<":
            return ((0, low),)
        if op == "<=":
            return ((0, high),)
        if op == ">":
            return ((high, total),)
        if op == ">=":
            return ((low, total),)
        raise ValueError(f"unknown comparison operator {op!r}")

    def matching_ranks(self, op: str, value) -> list[int]:
        """Structural rows whose value satisfies the comparison."""
        ranks = self.ranks
        return [
            rank
            for low, high in self.run_bounds(op, value)
            for rank in ranks[low:high]
        ]
