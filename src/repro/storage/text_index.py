"""Inverted keyword index over text and attribute values.

Section 4.3 observes that a PBN-based XML DBMS keeps several indexes whose
entries reference nodes *by PBN number as a logical key* — and that this is
exactly what renumbering invalidates and vPBN preserves.  The keyword index
is the canonical example: it maps each term to the numbers of the text and
attribute nodes containing it, in document order.

Because entries are plain numbers:

* physical containment search is a prefix test per posting
  (``element contains term`` = some posting extends the element's number);
* **virtual** containment search reuses the same untouched index — the
  posting's number plus the text type's level array form a vPBN, and
  ``vDescendant-or-self`` decides containment in the transformed space.
  The query function ``contains-text($nodes, "term")`` works transparently
  over ``doc()`` and ``virtualDoc()`` nodes for exactly this reason.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from repro.pbn.number import Pbn
from repro.storage.stats import StorageStats

_TOKEN = re.compile(r"[0-9A-Za-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``."""
    return [match.group(0).lower() for match in _TOKEN.finditer(text)]


class TextIndex:
    """term -> document-ordered posting list of text/attribute numbers."""

    def __init__(self, stats: StorageStats | None = None) -> None:
        self.stats = stats if stats is not None else StorageStats()
        self._postings: dict[str, list[tuple[int, ...]]] = {}

    @classmethod
    def build(cls, store, stats: StorageStats | None = None) -> "TextIndex":
        """Index every text and attribute node of a document store."""
        from repro.xmlmodel.nodes import NodeKind

        index = cls(stats=stats if stats is not None else store.stats)
        for components, node in store._node_by_key.items():
            if node.kind not in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
                continue
            for term in set(tokenize(node.value)):  # type: ignore[attr-defined]
                index._postings.setdefault(term, []).append(components)
        for postings in index._postings.values():
            postings.sort()
        return index

    def derived(
        self,
        removed: "list[tuple[str, tuple[int, ...]]]",
        added: "list[tuple[str, tuple[int, ...]]]",
        stats: StorageStats | None = None,
    ) -> "TextIndex":
        """A copy-on-write successor reflecting value-node churn.

        :param removed: ``(value, components)`` of deleted/overwritten
            text and attribute nodes.
        :param added: ``(value, components)`` of inserted/new ones.

        Only the posting lists of terms occurring in those values are
        copied; everything else is shared with this index.
        """
        from bisect import insort

        index = TextIndex(stats if stats is not None else self.stats)
        index._postings = dict(self._postings)
        owned: set[str] = set()

        def own(term: str) -> list[tuple[int, ...]]:
            if term not in owned:
                index._postings[term] = list(index._postings.get(term, ()))
                owned.add(term)
            return index._postings[term]

        for value, components in removed:
            for term in set(tokenize(value)):
                postings = own(term)
                position = bisect_left(postings, components)
                if position < len(postings) and postings[position] == components:
                    del postings[position]
                if not postings:
                    del index._postings[term]
                    owned.discard(term)
        for value, components in added:
            for term in set(tokenize(value)):
                insort(own(term), components)
        return index

    def terms(self) -> list[str]:
        return sorted(self._postings)

    def postings(self, term: str) -> list[Pbn]:
        """Numbers of the value nodes containing ``term``."""
        self.stats.index_range_scans += 1
        return [Pbn(*components) for components in self._postings.get(term.lower(), ())]

    def contains_under(self, prefix: Pbn, term: str) -> bool:
        """Physical containment: does any posting for ``term`` lie in the
        subtree rooted at ``prefix``?  One binary search."""
        self.stats.index_probes += 1
        postings = self._postings.get(term.lower())
        if not postings:
            return False
        key = prefix.components
        position = bisect_left(postings, key)
        return position < len(postings) and postings[position][: len(key)] == key

    def __len__(self) -> int:
        return len(self._postings)
