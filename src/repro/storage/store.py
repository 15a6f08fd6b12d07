"""The document store: everything a loaded document owns.

Loading a document performs what a PBN-based XML DBMS does at ingest, in
one preorder walk over the tree (:func:`index_tree`): per node it

1. assigns the PBN number (if the document is unnumbered),
2. finds the DataGuide type from its parent's type, making the type on
   its first instance (a dense Type ID each),
3. writes the node to the canonical string, tracking its character spans,
4. builds its value-index key (the parent's key plus its own component)
   and entry, and adds it to its type's posting list.

The string then goes to the paged heap and the entries and postings
become the value index (PBN -> spans + header) and the type index (Type
ID -> posting list of numbers).  The image loader and the update path run
the same walk.

All subsequent value retrieval goes ``number -> value index -> heap range``
so the stats block sees every logical I/O.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from typing import NamedTuple, Optional

from repro.dataguide.guide import DataGuide, GuideType
from repro.errors import StorageError
from repro.pbn.codec import component_key
from repro.pbn.number import Pbn
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageManager
from repro.storage.stats import StorageStats
from repro.storage.type_index import TypeIndex
from repro.storage.value_index import ValueEntry, ValueIndex
from repro.xmlmodel.nodes import (
    TEXT_NAME,
    Attribute,
    Document,
    Element,
    Node,
    NodeKind,
    Text,
)
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
        self.document = document
        self.guide = DataGuide()
        self.types_by_id: list[GuideType] = []
        self._node_by_key: dict[tuple[int, ...], Node] = {}
        #: node -> its Type ID (ids, not types: ``DataGuide.copy`` keeps
        #: ids stable, so an update copies this map as it is).
        self._type_of_node: dict[Node, int] = {}
        root = document.root
        indexed = _in_preorder(
            index_tree(
                document.children,
                self.guide,
                self.types_by_id,
                self._node_by_key,
                self._type_of_node,
                first=1 if root is not None and root.pbn is None else None,
            ),
            self.guide,
            self.types_by_id,
            self._type_of_node,
        )
        self._id_of_type: dict[GuideType, int] = {
            guide_type: type_id for type_id, guide_type in enumerate(self.types_by_id)
        }

        self.page_manager = PageManager(page_size, self.stats)
        self.buffer_pool = BufferPool(self.page_manager, buffer_capacity, metrics)
        self.heap = HeapFile.store(indexed.text, self.page_manager, self.buffer_pool)
        self.type_index = TypeIndex.from_postings(indexed.postings, self.stats)
        self.value_index = ValueIndex.from_columns(
            indexed.keys, indexed.entries, self.stats
        )
        self._text_index = None
        self._text_index_lock = threading.Lock()
        self._cas_index = None
        self._cas_lock = threading.Lock()
        self._view = None
        self._view_lock = threading.Lock()
        self._span_columns: dict[int, tuple] = {}
        self._span_lock = threading.Lock()
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
        store._span_columns = {}
        store._span_lock = threading.Lock()
        store.version = version
        return store

    def rehome(self, stats: StorageStats, metrics, uri: Optional[str] = None) -> str:
        """Count this store's work on its new owner's ``stats`` and
        buffer ``metrics`` (a store read from an image or a durable
        directory starts on blocks of its own), renaming its document to
        ``uri`` when one is given; returns the document's uri."""
        self.stats = stats
        self.page_manager.stats = stats
        self.type_index.stats = stats
        self.value_index.stats = stats
        self.buffer_pool.metrics = metrics
        if uri is not None:
            self.document.uri = uri
        return self.document.uri

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

    def row_values(self, guide_type: GuideType, rows) -> list[str]:
        """The values of the type's nodes at ``rows`` (a list or a range)
        of its posting list, in input order — :meth:`values_of` for a
        writer that already knows the rows.  Each row's span is read off
        the type's *span column* (start and end offsets, two machine-word
        arrays row-aligned with the posting list), built on first use with
        one value-index walk per type and version: a store never changes,
        and an update's new version starts without columns.  Like
        :meth:`values_of` it charges one ``index_probes`` per row and
        reads each heap page once per call."""
        type_id = self._id_of_type[guide_type]
        column = self._span_columns.get(type_id)
        if column is None:
            with self._span_lock:
                column = self._span_columns.get(type_id)
                if column is None:
                    spans = self.value_index.posting_spans(self.type_index.postings(type_id))
                    column = self._span_columns[type_id] = (
                        array("q", [start for start, _ in spans]),
                        array("q", [end for _, end in spans]),
                    )
        starts, ends = column
        self.stats.index_probes += len(rows)
        if type(rows) is range:
            low, high = rows.start, rows.stop
            return self.heap.read_ranges(zip(starts[low:high], ends[low:high]))
        return self.heap.read_ranges(zip(map(starts.__getitem__, rows), map(ends.__getitem__, rows)))

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
                        weakref.proxy(self), identity_vguide(self.guide), stats=self.stats
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


class Indexed(NamedTuple):
    """What :func:`index_tree` writes for a forest: the canonical text, and
    per node in document order its value-index key and entry; plus each
    type's postings (Type ID -> component tuples, document order)."""

    text: str
    keys: list
    entries: list
    postings: dict


def _in_preorder(
    indexed: Indexed, guide: DataGuide, types_by_id: list, type_of_node: dict
) -> Indexed:
    """Renumber the Type IDs a fresh walk made, in order of each type's
    first instance, to the guide's preorder (what a loaded document's
    Type IDs are).  The two orders differ only when a type's first
    instance comes after that of a later sibling type's descendant."""
    preorder = list(guide.iter_types())
    if preorder == types_by_id:
        return indexed
    position = {guide_type: type_id for type_id, guide_type in enumerate(preorder)}
    renumbered = [position[guide_type] for guide_type in types_by_id]
    types_by_id[:] = preorder
    for node, type_id in type_of_node.items():
        type_of_node[node] = renumbered[type_id]
    return indexed._replace(
        entries=[
            entry._replace(type_id=renumbered[entry.type_id])
            for entry in indexed.entries
        ],
        postings={
            renumbered[type_id]: numbers
            for type_id, numbers in indexed.postings.items()
        },
    )


def index_tree(
    roots,
    guide: DataGuide,
    types_by_id: list,
    node_by_key: dict,
    type_of_node: dict,
    *,
    parent: tuple = ((), b"", -1),
    first=None,
    offset: int = 0,
) -> Indexed:
    """Index a forest in one iterative preorder walk: number, type, write
    and key every node of ``roots`` and their subtrees.

    Each node is typed from its parent's type and label (a guide type is
    made, and its count raised, for the first node of its path); a type
    not yet in ``types_by_id`` is appended to it, so its Type ID is its
    position there.  Each key is the parent's key plus the node's
    component encoding.  The text is the whitespace-free canonical form
    (:func:`repro.xmlmodel.serializer.serialize`), starting at character
    ``offset``; entries' spans count from there.  ``node_by_key`` and
    ``type_of_node`` receive every node.

    :param parent: the roots' parent — its components, key and Type ID
        (-1 for the document).
    :param first: number the roots ``first``, ``first + 1``, ... and
        every node below them densely from 1 (overwriting any number);
        ``None`` keeps the numbers the nodes carry.
    """
    id_of_type = {guide_type: i for i, guide_type in enumerate(types_by_id)}
    child_types: dict = {}
    postings: list = [[] for _ in types_by_id]

    def type_of(parent_id: int, label: str) -> int:
        path = (types_by_id[parent_id].path if parent_id >= 0 else ()) + (label,)
        guide_type = guide.ensure_type(path)
        type_id = id_of_type.get(guide_type)
        if type_id is None:
            type_id = id_of_type[guide_type] = len(types_by_id)
            types_by_id.append(guide_type)
            postings.append([])
        child_types[parent_id, label] = type_id
        return type_id

    parts: list[str] = []
    emit = parts.append
    keys: list[bytes] = []
    entries: list = []
    add_key = keys.append
    add_entry = entries.append
    entry = tuple.__new__
    extended = Pbn.extended
    ELEMENT, ATTRIBUTE, TEXT = NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.TEXT
    renumber = first is not None
    at = offset
    stack: list = []
    # The open element: its node, entry slot, start, Type ID, whether its
    # start tag is still open (attributes only so far) and content start.
    element, slot, start, element_type, open_tag, content_start = (
        None, 0, 0, -1, False, 0,
    )
    siblings, index, base = roots, 0, (first - 1 if renumber else 0)
    components, key, parent_type = parent
    while True:
        if index == len(siblings):
            if not stack:
                break
            if open_tag:
                emit("/>")
                at += 2
                content_start = content_end = at
            else:
                content_end = at
                close = f"</{element.tag}>"
                emit(close)
                at += len(close)
            entries[slot] = entry(
                ValueEntry,
                (start, at, element_type, ELEMENT, content_start, content_end),
            )
            (
                siblings, index, base, components, key, parent_type,
                element, slot, start, element_type, open_tag, content_start,
            ) = stack.pop()
            continue
        node = siblings[index]
        index += 1
        cls = type(node)
        if cls is Attribute:
            if not open_tag:
                raise StorageError(f"attribute {node.attr_name!r} follows content")
            label = "@" + node.attr_name
        else:
            if open_tag:
                emit(">")
                at += 1
                content_start = at
                open_tag = False
            label = node.tag if cls is Element else TEXT_NAME
        if renumber:
            number = node.pbn = extended(components, base + index)
            node_components = number.components
        else:
            node_components = node.pbn.components
        node_key = key + component_key(node_components[-1])
        type_id = child_types.get((parent_type, label))
        if type_id is None:
            type_id = type_of(parent_type, label)
        postings[type_id].append(node_components)
        node_by_key[node_components] = node
        type_of_node[node] = type_id
        add_key(node_key)
        if cls is Text:
            value = escape_text(node.value)
            emit(value)
            end = at + len(value)
            add_entry(entry(ValueEntry, (at, end, type_id, TEXT, at, end)))
            at = end
        elif cls is Attribute:
            value = escape_attribute(node.value)
            written = f' {node.attr_name}="{value}"'
            emit(written)
            end = at + len(written)
            add_entry(
                entry(
                    ValueEntry,
                    (at + 1, end, type_id, ATTRIBUTE, end - 1 - len(value), end - 1),
                )
            )
            at = end
        else:
            stack.append(
                (
                    siblings, index, base, components, key, parent_type,
                    element, slot, start, element_type, open_tag, content_start,
                )
            )
            element, slot, start, element_type, open_tag = (
                node, len(entries), at, type_id, True,
            )
            add_entry(None)
            emit("<" + node.tag)
            at += len(node.tag) + 1
            siblings, index, base = node._children, 0, 0
            components, key, parent_type = node_components, node_key, type_id
    for type_id, numbers in enumerate(postings):
        types_by_id[type_id].count += len(numbers)
    return Indexed(
        "".join(parts),
        keys,
        entries,
        {type_id: numbers for type_id, numbers in enumerate(postings) if numbers},
    )
