"""The document store: everything a loaded document owns.

Loading a document performs what a PBN-based XML DBMS does at ingest:

1. assign PBN numbers (if absent),
2. build the DataGuide and give every type a dense Type ID,
3. serialize the document to its canonical string, tracking each node's
   character spans,
4. write the string to the paged heap,
5. bulk-load the value index (PBN -> spans + header) and the type index
   (Type ID -> posting list of numbers).

All subsequent value retrieval goes ``number -> value index -> heap range``
so the stats block sees every logical I/O.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional

from repro.dataguide.build import build_dataguide
from repro.dataguide.guide import DataGuide, GuideType
from repro.errors import StorageError
from repro.pbn.assign import assign_numbers
from repro.pbn.number import Pbn
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageManager
from repro.storage.stats import StorageStats
from repro.storage.type_index import TypeIndex
from repro.storage.value_index import ValueEntry, ValueIndex
from repro.xmlmodel.nodes import Document, Node, NodeKind
from repro.xmlmodel.serializer import escape_attribute, escape_text


class DocumentStore:
    """A stored document: heap + value index + type index + DataGuide.

    :param document: the document to load (numbered in place if needed).
    :param page_size: heap page capacity in characters.
    :param buffer_capacity: buffer pool size in pages.
    :param stats: counter block; a fresh one is created if not given.
    :param metrics: optional service metrics block threaded into the
        buffer pool (``QueryService`` shares one store across engines).
    """

    def __init__(
        self,
        document: Document,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 64,
        stats: Optional[StorageStats] = None,
        metrics=None,
    ) -> None:
        self.stats = stats if stats is not None else StorageStats()
        root = document.root
        if root is not None and root.pbn is None:
            assign_numbers(document)
        self.document = document
        self.guide = build_dataguide(document)

        self.types_by_id: list[GuideType] = list(self.guide.iter_types())
        self._id_of_type: dict[GuideType, int] = {
            guide_type: type_id for type_id, guide_type in enumerate(self.types_by_id)
        }

        text, records = _serialize_with_spans(document)
        self.page_manager = PageManager(page_size, self.stats)
        self.buffer_pool = BufferPool(self.page_manager, buffer_capacity, metrics)
        self.heap = HeapFile.store(text, self.page_manager, self.buffer_pool)

        self._node_by_key: dict[tuple[int, ...], Node] = {}
        #: node -> its Type ID (ids, not types: ``DataGuide.copy`` keeps
        #: ids stable, so an update copies this map as it is).
        self._type_of_node: dict[Node, int] = {}
        self.type_index = TypeIndex(self.stats)
        entries: list[tuple[Pbn, ValueEntry]] = []
        for node, start, end, content_start, content_end in records:
            guide_type = self.guide.type_of(node)
            type_id = self._id_of_type[guide_type]
            entries.append(
                (
                    node.pbn,
                    ValueEntry(start, end, type_id, node.kind, content_start, content_end),
                )
            )
            self.type_index.append(type_id, node.pbn)
            self._node_by_key[node.pbn.components] = node
            self._type_of_node[node] = type_id
        self.value_index = ValueIndex.build(entries, self.stats)
        self._text_index = None
        self._text_index_lock = threading.Lock()
        self._cas_index = None
        self._cas_lock = threading.Lock()
        self._view = None
        self._view_lock = threading.Lock()
        #: Update-subsystem version counter: 0 for a freshly loaded store,
        #: bumped on every copy-on-write derivation (see repro.updates).
        self.version = 0

    @classmethod
    def from_parts(
        cls,
        *,
        document: Document,
        guide: DataGuide,
        types_by_id: "list[GuideType]",
        page_manager: PageManager,
        buffer_pool: BufferPool,
        heap: HeapFile,
        value_index: ValueIndex,
        type_index: TypeIndex,
        node_by_key: dict,
        type_of_node: dict,
        stats: Optional[StorageStats] = None,
        text_index=None,
        version: int = 0,
    ) -> "DocumentStore":
        """Assemble a store from pre-built parts without re-ingesting.

        Two callers: the version-2 image loader (parts decoded from disk)
        and the update subsystem (parts derived copy-on-write from the
        previous version).  The normal constructor stays the ingest path.
        """
        store = cls.__new__(cls)
        store.stats = stats if stats is not None else StorageStats()
        store.document = document
        store.guide = guide
        store.types_by_id = types_by_id
        store._id_of_type = {
            guide_type: type_id for type_id, guide_type in enumerate(types_by_id)
        }
        store.page_manager = page_manager
        store.buffer_pool = buffer_pool
        store.heap = heap
        store.value_index = value_index
        store.type_index = type_index
        store._node_by_key = node_by_key
        store._type_of_node = type_of_node
        store._text_index = text_index
        store._text_index_lock = threading.Lock()
        store._cas_index = None
        store._cas_lock = threading.Lock()
        store._view = None
        store._view_lock = threading.Lock()
        store.version = version
        return store

    # -- node and type lookup -----------------------------------------------------

    def node(self, number: Pbn) -> Node:
        """The in-memory node handle for a stored number.

        :raises StorageError: for numbers not in this document.
        """
        node = self._node_by_key.get(number.components)
        if node is None:
            raise StorageError(f"no node {number} in document {self.document.uri!r}")
        return node

    def node_by_components(self, components: tuple[int, ...]) -> Node:
        """Like :meth:`node` but from a raw component tuple (hot path)."""
        node = self._node_by_key.get(components)
        if node is None:
            raise StorageError(f"no node {components} in document {self.document.uri!r}")
        return node

    def contains_node(self, node: Node) -> bool:
        """True iff ``node`` belongs to this store's document."""
        return node in self._type_of_node

    def parent_of(self, node: Node) -> Optional[Node]:
        """``node``'s parent in this version, by number: the node under
        its number truncated, the document for a root element, ``None``
        for the document.  Versions of one document share every node an
        update did not touch, so a stored node's ``parent`` pointer may
        lead into another version; its number never does."""
        number = node.pbn
        if number is None:
            return None
        components = number.components
        if len(components) == 1:
            return self.document
        return self._node_by_key[components[:-1]]

    def type_of(self, node: Node) -> GuideType:
        """The stored node's DataGuide type (O(1))."""
        type_id = self._type_of_node.get(node)
        if type_id is None:
            raise StorageError("node does not belong to this store")
        return self.types_by_id[type_id]

    def type_ids_of(self, nodes) -> Optional[list[int]]:
        """The Type ID of each of ``nodes`` (one dict probe apiece), or
        ``None`` when some item is not a node of this store."""
        ids = list(map(self._type_of_node.get, nodes))
        return None if None in ids else ids

    def type_id(self, guide_type: GuideType) -> int:
        return self._id_of_type[guide_type]

    # -- values --------------------------------------------------------------------

    def value_of(self, number: Pbn) -> str:
        """The node's XML value (paper Section 6): its substring of the
        stored document string, fetched through the buffer pool."""
        return self.heap.read_range(*self.value_index.span(number))

    def values_of(self, numbers) -> list[str]:
        """:meth:`value_of` of every number, in input order: one value
        index walk and each heap page read once for the whole batch."""
        return self.heap.read_ranges(self.value_index.spans(numbers))

    def content_of(self, number: Pbn) -> str:
        """An element's inner content (between its tags), or the raw text
        of a text/attribute node."""
        entry = self.value_index.lookup(number)
        return self.heap.read_range(entry.content_start, entry.content_end)

    @property
    def text_index(self):
        """The keyword index (built lazily on first use — not every
        document gets text-searched; the lock keeps concurrent first
        touches from building it twice)."""
        if self._text_index is None:
            from repro.storage.text_index import TextIndex

            with self._text_index_lock:
                if self._text_index is None:
                    self._text_index = TextIndex.build(self)
        return self._text_index

    @property
    def cas_index(self):
        """The content-and-structure index (lazy, like the keyword index;
        the columns inside it are lazy again, per type).  The update path
        replaces this wholesale with a copy-on-write derivation — see
        :meth:`repro.storage.cas_index.CasIndex.derived`."""
        if self._cas_index is None:
            from repro.storage.cas_index import CasIndex

            with self._cas_lock:
                if self._cas_index is None:
                    self._cas_index = CasIndex(self)
        return self._cas_index

    @property
    def view(self):
        """The document as a virtual hierarchy: a
        :class:`~repro.core.virtual_document.VirtualDocument` over the
        identity vDataGuide of :attr:`guide` — vPBN with every level
        array the identity, which is PBN (paper Section 4.2).  Stored
        documents navigate through it.  Built on first navigation, never
        at load or open; a store is immutable, so an update's new version
        starts without one.  The view holds the store weakly (the store
        owns it, and a cycle would keep retired versions alive until a
        full collection)."""
        if self._view is None:
            from repro.core.virtual_document import VirtualDocument
            from repro.vdataguide.resolve import identity_vguide

            with self._view_lock:
                if self._view is None:
                    view = VirtualDocument(
                        self.document,
                        identity_vguide(self.guide),
                        stats=self.stats,
                        store=weakref.proxy(self),
                    )
                    view.is_store_view = True
                    self._view = view
        return self._view

    # -- reporting -------------------------------------------------------------------

    def size_summary(self) -> dict[str, int]:
        """Sizes the space experiment (E5) reports."""
        return {
            "nodes": len(self._node_by_key),
            "types": len(self.types_by_id),
            "heap_chars": self.heap.length,
            "heap_pages": self.heap.page_count,
            "value_index_entries": len(self.value_index),
        }


def _serialize_with_spans(
    document: Document,
) -> tuple[str, list[tuple[Node, int, int, int, int]]]:
    """Serialize ``document`` (whitespace-free canonical form) recording
    ``(node, start, end, content_start, content_end)`` for every node, in
    document order.  The text is identical to
    :func:`repro.xmlmodel.serializer.serialize` output."""
    parts: list[str] = []
    records: list[tuple[Node, int, int, int, int]] = []
    offset = 0

    def emit(text: str) -> None:
        nonlocal offset
        parts.append(text)
        offset += len(text)

    def write(node: Node) -> None:
        start = offset
        if node.kind is NodeKind.TEXT:
            emit(escape_text(node.value))  # type: ignore[attr-defined]
            records.append((node, start, offset, start, offset))
            return
        if node.kind is NodeKind.ATTRIBUTE:
            emit(node.attr_name + '="')  # type: ignore[attr-defined]
            content_start = offset
            emit(escape_attribute(node.value))  # type: ignore[attr-defined]
            content_end = offset
            emit('"')
            records.append((node, start, offset, content_start, content_end))
            return
        # Element: record is appended first (document order), spans are
        # patched once the subtree is written.
        record_index = len(records)
        records.append((node, start, -1, -1, -1))
        emit(f"<{node.name}")
        attributes = [c for c in node.children if c.kind is NodeKind.ATTRIBUTE]
        content = [c for c in node.children if c.kind is not NodeKind.ATTRIBUTE]
        for attribute in attributes:
            emit(" ")
            write(attribute)
        if not content:
            emit("/>")
            records[record_index] = (node, start, offset, offset, offset)
            return
        emit(">")
        content_start = offset
        for child in content:
            write(child)
        content_end = offset
        emit(f"</{node.name}>")
        records[record_index] = (node, start, offset, content_start, content_end)

    for root in document.children:
        write(root)
    return "".join(parts), records
