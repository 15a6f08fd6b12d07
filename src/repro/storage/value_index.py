"""The value index: PBN number -> character range of the node's XML value.

This is the structure the paper describes in Section 6: "a value index to
quickly find the value of a node given its PBN number ... maps a node's PBN
number to a range of characters in the source data string".  Entries also
carry the node *header* the paper stores with each node: the Type ID and the
node kind.

Keys are order-preserving encoded PBN numbers, so the index doubles as a
document-order directory: a prefix scan enumerates a subtree.

Layout: sorted *pages* of at most ``2 * PAGE_ENTRIES`` keys with their
entries, a directory of each page's first key, and a parallel list of
per-page offset *bases*.  An entry's absolute offsets are its stored
offsets plus its page's base, so an update that shifts every span after a
splice point re-bases whole pages instead of rewriting their entries — the
blocked layout of Pibiri & Venturini (arXiv 2006.14552) applied to span
offsets.  Pages are immutable once built: a version derived by
:meth:`ValueIndex.derive` owns a new directory and shares every untouched
page with its parent by identity, which is what lets in-flight queries and
replicas keep reading the version they pinned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import StorageError
from repro.pbn.codec import decode_key, encode_components, encode_key
from repro.pbn.number import Pbn
from repro.storage.stats import StorageStats
from repro.xmlmodel.nodes import NodeKind

#: Entries per page at build / image load; an edited page splits past twice this.
PAGE_ENTRIES = 64


class ValueEntry(NamedTuple):
    """One node's header and value range.

    :ivar start: first character of the node's XML value (for an element,
        its start tag's ``<``).
    :ivar end: one past the last character (for an element, past ``>`` of
        the end tag).
    :ivar type_id: the node's Type ID — the position of its DataGuide type
        in preorder (dense, stable for a loaded document).
    :ivar kind: element / attribute / text.
    :ivar content_start: for elements, first character *after* the start
        tag; for text and attribute nodes, start of the raw text.  Lets the
        virtual value builder splice children without re-reading tags.
    :ivar content_end: for elements, first character of the end tag.
    """

    start: int
    end: int
    type_id: int
    kind: NodeKind
    content_start: int
    content_end: int


def _shifted(entry: ValueEntry, by: int) -> ValueEntry:
    start, end, type_id, kind, content_start, content_end = entry
    return tuple.__new__(
        ValueEntry,
        (start + by, end + by, type_id, kind, content_start + by, content_end + by),
    )


class _Page(NamedTuple):
    keys: list  # encoded PBN keys, strictly increasing
    entries: list  # ValueEntry per key, offsets relative to the page's base


class ValueIndex:
    """Encoded PBN numbers -> :class:`ValueEntry` rows, in sorted pages.

    Keys use the rational-capable :func:`~repro.pbn.codec.encode_key`
    codec (not the gap-free ``encode_pbn``) so numbers minted by the
    update subsystem sort between extant integers without renumbering.
    """

    def __init__(self, stats: StorageStats | None = None):
        self.stats = stats if stats is not None else StorageStats()
        self._firsts: list[bytes] = []  # first key of each page
        self._pages: list[_Page] = []
        self._bases: list[int] = []
        self._size = 0

    @classmethod
    def build(
        cls, entries: list[tuple[Pbn, ValueEntry]], stats: StorageStats | None = None
    ) -> "ValueIndex":
        """Bulk-load from document-order ``(number, entry)`` pairs."""
        return cls.from_items(
            [(encode_key(number), entry) for number, entry in entries], stats
        )

    @classmethod
    def from_items(
        cls,
        items: Iterable[tuple[bytes, ValueEntry]],
        stats: StorageStats | None = None,
    ) -> "ValueIndex":
        """Bulk-load from ``(encoded key, entry)`` pairs, pages packed full.

        :raises StorageError: if the keys are not strictly increasing.
        """
        pairs = list(items)
        return cls.from_columns(
            [key for key, _ in pairs], [entry for _, entry in pairs], stats
        )

    @classmethod
    def from_columns(
        cls, keys: list, entries: list, stats: StorageStats | None = None
    ) -> "ValueIndex":
        """Bulk-load from parallel lists of encoded keys and their entries.

        :raises StorageError: if the keys are not strictly increasing.
        """
        if any(left >= right for left, right in zip(keys, keys[1:])):
            raise StorageError("value index keys must be strictly increasing")
        index = cls(stats)
        index._append_pages(keys, entries)
        index._size = len(keys)
        return index

    def _append_pages(self, keys: list, entries: list) -> None:
        """Append sorted ``keys`` and their ``entries`` (absolute offsets)
        as base-0 pages: one page up to twice the build size, else split
        at the build size."""
        size = len(keys) if len(keys) <= 2 * PAGE_ENTRIES else PAGE_ENTRIES
        for start in range(0, len(keys), size or 1):  # no keys, no page
            self._firsts.append(keys[start])
            self._pages.append(
                _Page(keys[start : start + size], entries[start : start + size])
            )
            self._bases.append(0)

    # -- reads -------------------------------------------------------------------

    def _find(self, number: Pbn) -> tuple[Optional[ValueEntry], int]:
        """The stored entry for ``number`` (``None`` when absent) and the
        base its offsets are relative to."""
        self.stats.index_probes += 1
        key = encode_key(number)
        page_index = bisect_right(self._firsts, key) - 1
        if page_index >= 0:
            keys, entries = self._pages[page_index]
            slot = bisect_left(keys, key)
            if slot < len(keys) and keys[slot] == key:
                return entries[slot], self._bases[page_index]
        return None, 0

    def get(self, number: Pbn) -> Optional[ValueEntry]:
        """Point lookup returning ``None`` when absent."""
        entry, base = self._find(number)
        return _shifted(entry, base) if base else entry

    def lookup(self, number: Pbn) -> ValueEntry:
        """Point lookup.

        :raises StorageError: if the number was never indexed.
        """
        entry = self.get(number)
        if entry is None:
            raise StorageError(f"no value entry for PBN {number}")
        return entry

    def span(self, number: Pbn) -> tuple[int, int]:
        """``(start, end)`` of the node's value — all the answer path needs
        of :meth:`lookup`, without building an entry on a re-based page.

        :raises StorageError: if the number was never indexed.
        """
        entry, base = self._find(number)
        if entry is None:
            raise StorageError(f"no value entry for PBN {number}")
        return entry[0] + base, entry[1] + base

    def spans(self, numbers) -> list[tuple[int, int]]:
        """:meth:`span` of every number, in input order, in one page walk:
        the keys are visited in sorted order, the page cursor only moves
        forward and each key costs one in-page bisect.  Charges one
        ``index_probes`` per number, like :meth:`span`.

        :raises StorageError: if a number was never indexed.
        """
        keys = [encode_key(number) for number in numbers]
        self.stats.index_probes += len(keys)
        return self._walk(keys, sorted(range(len(keys)), key=keys.__getitem__), numbers)

    def posting_spans(self, postings) -> list[tuple[int, int]]:
        """The spans of a sorted list of component tuples (a type's
        posting list), row-aligned with it: the same page walk as
        :meth:`spans` without the sort, charged as one
        ``index_range_scans``.

        :raises StorageError: if a number was never indexed.
        """
        keys = list(map(encode_components, postings))
        self.stats.index_range_scans += 1
        return self._walk(keys, range(len(keys)), postings)

    def _walk(self, keys: list, positions, numbers) -> list[tuple[int, int]]:
        """The span of each of ``keys``, visited in the ascending key
        order ``positions`` gives (``numbers`` names a missing key)."""
        out: list = [None] * len(keys)
        firsts, pages, bases = self._firsts, self._pages, self._bases
        count = len(pages)
        page_index, page_keys, entries, base, slot = -1, [], [], 0, 0
        for position in positions:
            key = keys[position]
            if page_index + 1 < count and firsts[page_index + 1] <= key:
                page_index = bisect_right(firsts, key, page_index + 1) - 1
                page_keys, entries = pages[page_index]
                base, slot = bases[page_index], 0
            slot = bisect_left(page_keys, key, slot)
            if slot == len(page_keys) or page_keys[slot] != key:
                raise StorageError(f"no value entry for PBN {numbers[position]}")
            entry = entries[slot]
            out[position] = (entry[0] + base, entry[1] + base)
        return out

    def items(
        self, low: Optional[bytes] = None, high: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, ValueEntry]]:
        """``(encoded key, entry)`` pairs with ``low <= key < high`` in key
        order, offsets absolute.  ``None`` bounds are open."""
        self.stats.index_range_scans += 1
        first = 0 if low is None else max(bisect_right(self._firsts, low) - 1, 0)
        for page_index in range(first, len(self._pages)):
            if high is not None and self._firsts[page_index] >= high:
                return
            keys, entries = self._pages[page_index]
            base = self._bases[page_index]
            start = bisect_left(keys, low) if page_index == first and low else 0
            stop = len(keys) if high is None else bisect_left(keys, high)
            for slot in range(start, stop):
                entry = entries[slot]
                yield keys[slot], (_shifted(entry, base) if base else entry)

    def subtree(self, number: Pbn) -> Iterator[tuple[Pbn, ValueEntry]]:
        """All indexed nodes in the subtree rooted at ``number``
        (descendant-or-self), in document order."""
        prefix = encode_key(number)
        for key, entry in self.items(prefix, _prefix_successor(prefix)):
            yield decode_key(key), entry

    def subtree_all(self) -> Iterator[tuple[Pbn, ValueEntry]]:
        """Every indexed node in document order (a full index scan)."""
        for key, entry in self.items():
            yield decode_key(key), entry

    def __len__(self) -> int:
        return self._size

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def shared_pages(self, other: "ValueIndex") -> int:
        """How many of this index's pages are ``other``'s page objects —
        the index's share of an update's copy-on-write, beside the heap's
        :meth:`~repro.storage.heap.HeapFile.shared_page_prefix`."""
        theirs = {id(page) for page in other._pages}
        return sum(id(page) in theirs for page in self._pages)

    # -- copy-on-write derivation ------------------------------------------------

    def derive(
        self,
        cut_start: int,
        cut_end: int,
        delta: int,
        drop_prefix: Optional[bytes] = None,
        overrides: Optional[dict] = None,
        stretch: frozenset = frozenset(),
        inserted: Iterable[tuple[bytes, ValueEntry]] = (),
        site: Optional[bytes] = None,
    ) -> "ValueIndex":
        """The next version after the heap splice ``[cut_start, cut_end)``
        -> a replacement ``delta`` characters longer.

        Per entry, first rule that applies: a key under ``drop_prefix`` is
        dropped; a key in ``overrides`` takes its ``(start, end,
        content_start, content_end)`` from there; a key in ``stretch`` (the
        ancestors of the mutation site) grows by ``delta`` around the cut;
        an entry starting at or after ``cut_start`` shifts by ``delta``.
        ``inserted`` pairs (absolute offsets) merge in.

        An entry starting *exactly* at ``cut_start`` is a follower of the
        splice or a zero-width span ``[p, p)`` before it (an emptied text
        node); offsets cannot tell them apart, key order can.  ``site`` is
        the key the mutation happens at — the inserted root, the deleted
        root, the replaced leaf: of the entries at ``cut_start``, only
        those keyed at or after it shift.

        Only pages holding a dropped, overridden, stretched or inserted key
        and the *split page* — the first whose last entry starts at or
        after ``cut_start`` (starts are monotone in key order) — are
        rewritten, at base 0.  Pages before the split page are shared as
        they are, pages after it are shared with ``base + delta``.
        """
        overrides = overrides or {}
        firsts, pages, bases = self._firsts, self._pages, self._bases
        count = len(pages)

        def page_of(key: bytes) -> int:
            return max(bisect_right(firsts, key) - 1, 0)

        split = bisect_left(
            range(count),
            cut_start,
            key=lambda i: pages[i].entries[-1].start + bases[i],
        )
        touched = {page_of(key) for key in (*overrides, *stretch)}
        if split < count:
            touched.add(split)
        if site is not None:
            # Zero-width entries tied at cut_start sit just before the
            # site in key order; none may ride a shared page's base + delta.
            touched.update(range(split, min(page_of(site) + 1, count)))
        if drop_prefix is not None:
            successor = _prefix_successor(drop_prefix)
            stop = count if successor is None else bisect_left(firsts, successor)
            touched.update(range(page_of(drop_prefix), stop))
        landing: dict[int, list] = {}
        for pair in inserted:
            landing.setdefault(page_of(pair[0]), []).append(pair)
        touched.update(landing)

        derived = ValueIndex(self.stats)
        derived._size = self._size

        def share(start: int, stop: int) -> None:
            derived._firsts += firsts[start:stop]
            derived._pages += pages[start:stop]
            if delta and start > split:
                derived._bases += [base + delta for base in bases[start:stop]]
            else:
                derived._bases += bases[start:stop]

        done = 0
        for page_index in sorted(touched):
            share(done, page_index)
            done = page_index + 1
            pairs = landing.get(page_index, [])
            derived._size += len(pairs)
            if page_index < count:
                base = bases[page_index]
                for key, entry in zip(*pages[page_index]):
                    if drop_prefix is not None and key.startswith(drop_prefix):
                        derived._size -= 1
                        continue
                    start, end, type_id, kind, content_start, content_end = entry
                    if key in overrides:
                        start, end, content_start, content_end = overrides[key]
                    elif key in stretch:
                        start += base
                        end += base + delta
                        content_start += base
                        if cut_end < content_start:
                            content_start += delta
                        content_end += base + delta
                    else:
                        offset = start + base
                        follows = offset > cut_start or (
                            offset == cut_start and (site is None or key >= site)
                        )
                        shift = base + delta if follows else base
                        start += shift
                        end += shift
                        content_start += shift
                        content_end += shift
                    pairs.append(
                        (key, ValueEntry(start, end, type_id, kind, content_start, content_end))
                    )
            if page_index in landing:
                pairs.sort(key=itemgetter(0))
                if any(left[0] == right[0] for left, right in zip(pairs, pairs[1:])):
                    raise StorageError("inserted value index key already exists")
            derived._append_pages(
                [key for key, _ in pairs], [entry for _, entry in pairs]
            )
        share(done, count)
        return derived


def _prefix_successor(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every string starting with
    ``prefix`` (``None`` when the prefix is all ``0xFF``)."""
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])
