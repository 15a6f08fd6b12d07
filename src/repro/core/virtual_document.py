"""Navigation over a virtual hierarchy without materializing it.

A :class:`VirtualDocument` couples an original (PBN-numbered) document with a
resolved vDataGuide.  A position in the virtual hierarchy is a
:class:`VNode` — an (original node, virtual type) pair; the same original
node can occupy several virtual positions (see the duplication caveat in
:mod:`repro.core.vpbn`).

Navigation never walks the virtual tree top-down from scratch: the children
of a virtual node are found by a binary-search range scan over the type
index's posting lists, using the ``lcaLength`` prefix that defines the
virtual parent/child relation.  Only data the caller actually navigates to
is touched — the paper's core efficiency argument.  A view built over a
:class:`~repro.storage.store.DocumentStore` is a lens: it borrows the
store's posting lists and columns by identity and resolves a type's node
list the first time a query touches the type.  Built from a bare document
(tests, the property oracles) it fills a private type index with one walk;
navigation is the same code either way.

:meth:`VirtualDocument.materialize` instantiates the transformed document
(the "rewrite the data" strategy) and renumbers it; the library uses it as
the comparison baseline and as the ground-truth oracle for the Theorem 1
property tests.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from repro.core.vpbn import VPbn
from repro.dataguide.build import build_dataguide
from repro.dataguide.guide import DataGuide, GuideType
from repro.pbn.assign import assign_numbers
from repro.pbn.columnar import Column, subtree_bound
from repro.pbn.succinct import build_column
from repro.storage.stats import StorageStats
from repro.storage.type_index import TypeIndex
from repro.vdataguide.ast import VGuide, VType
from repro.xmlmodel.nodes import Attribute, Document, Element, Node, NodeKind, Text


class VNode:
    """A position in the virtual hierarchy: an original node under a
    virtual type.  Identity (equality, hashing) is the pair.

    The ``_vdoc`` slot lets the query layer tag a VNode with the
    :class:`VirtualDocument` it came from; it carries no identity.
    """

    __slots__ = ("vtype", "node", "_vdoc", "_vpbn")

    def __init__(self, vtype: VType, node: Node, vdoc: "Optional[VirtualDocument]" = None) -> None:
        self.vtype = vtype
        self.node = node
        self._vdoc = vdoc
        self._vpbn: Optional[VPbn] = None

    @property
    def vpbn(self) -> VPbn:
        """The node's vPBN number at this virtual position (memoized —
        ordering axes read it once per comparison)."""
        cached = self._vpbn
        if cached is None:
            cached = self._vpbn = VPbn(self.node.pbn, self.vtype)
        return cached

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def kind(self) -> NodeKind:
        return self.node.kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VNode)
            and self.vtype is other.vtype
            and self.node is other.node
        )

    def __hash__(self) -> int:
        return hash((id(self.vtype), id(self.node)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VNode({self.node.pbn} @ {self.vtype.dotted()})"


def _prefix_bounds(keys, prefix: tuple) -> tuple[int, int]:
    """Row range of the sorted ``keys`` that start with ``prefix``."""
    low = bisect_left(keys, prefix)
    # Fraction-safe subtree bound (a careted 5/2 sibling must not fall
    # inside 2's child range), see repro.pbn.columnar.
    return low, bisect_left(keys, subtree_bound(prefix), low)


def sibling_rows(entries, components: tuple) -> list:
    """The virtual children of the node numbered ``components`` among
    ``entries`` — one ``(lca_length, keys, nodes, tag)`` per child type,
    in specification order — as ``(tag, node)`` pairs in sibling order:
    original document order, specification order breaking ties (a node
    placed twice).  Each child type costs one prefix-range bisect of its
    key list — :meth:`VirtualDocument.children`'s one-node form of what
    the value writer does for a whole batch of parents
    (:mod:`repro.core.values`)."""
    runs = []
    for lca_length, keys, nodes, tag in entries:
        low, high = _prefix_bounds(keys, components[:lca_length])
        if low < high:
            runs.append((keys, nodes, tag, low, high))
    if len(runs) == 1:  # one child type's rows are already in order
        _, nodes, tag, low, high = runs[0]
        return [(tag, node) for node in nodes[low:high]]
    found = [
        (keys[row], tag, nodes[row])
        for keys, nodes, tag, low, high in runs
        for row in range(low, high)
    ]
    found.sort(key=itemgetter(0))  # stable: equal keys keep specification order
    return [(tag, node) for _, tag, node in found]


class VirtualDocument:
    """A document reinterpreted through a vDataGuide.

    :param document: the original document; must be PBN-numbered (call
        :func:`repro.pbn.assign.assign_numbers` first — the constructor
        numbers it automatically if it is not).
    :param vguide: a resolved virtual guide with level arrays built (use
        :func:`repro.vdataguide.grammar.parse_vdataguide`).
    :param store: the store holding ``document`` (``vguide`` must be
        resolved against ``store.guide``).  The view then borrows the
        store's type index and reads transformed values from its heap.
    """

    def __init__(self, document: Document, vguide: VGuide, stats=None, store=None) -> None:
        root = document.root
        if root is not None and root.pbn is None:
            assign_numbers(document)
        if store is not None and store.document is not document:
            raise ValueError("store and virtual document must share the document")
        self.document = document
        self.vguide = vguide
        self.store = store
        #: True for a store's own identity view (``DocumentStore.view``):
        #: its answers are the stored document's nodes.
        self.is_store_view = False
        self.stats = stats if stats is not None else StorageStats()
        # Per original type: (document-ordered keys, row-aligned nodes).
        # Over a store the key list *is* the type index's posting list and
        # an entry appears when a type is first touched; without a store
        # one document walk fills every entry.
        self._rows: dict[GuideType, tuple[Sequence[tuple[int, ...]], list[Node]]] = {}
        self._reachable: dict[VType, list[Node]] = {}
        self._reachable_id_sets: dict[VType, frozenset] = {}
        # Columns over the *reachable* instances of a virtual type (whole
        # type columns live in the type index).  The virtual document is
        # immutable — updates publish a new one — so nothing here ever
        # invalidates piecemeal.
        self._reachable_columns: dict[VType, tuple[Column, list[Node]]] = {}
        # Per-vtype plans of the value writer (repro.core.values) and
        # virtual-value CAS columns (repro.storage.cas_index).
        self._value_plans: dict = {}
        self._cas_memo: dict = {}
        # The virtual navigator's order decisions (repro.query.eval_virtual):
        # first-copy order key, and the order class of each step shape.
        self._order_memo: dict = {}
        # Reentrant: reachability recurses parent-ward under the lock.  A
        # view cached by the service is navigated from several engine
        # threads at once; the lock keeps the lazy memos single-build.
        self._memo_lock = threading.RLock()
        if store is not None:
            self._type_index = store.type_index
            # Not the bound method: through a weak proxy it would hold the
            # store itself strongly.
            self._type_id = lambda guide_type: store.type_id(guide_type)
        else:
            self._index_nodes()

    @classmethod
    def from_spec(
        cls, document: Document, spec: str, guide: Optional[DataGuide] = None
    ) -> "VirtualDocument":
        """Build directly from a specification string (parses, resolves,
        and runs Algorithm 1)."""
        from repro.vdataguide.grammar import parse_vdataguide

        if guide is None:
            guide = build_dataguide(document)
        return cls(document, parse_vdataguide(spec, guide))

    def _index_nodes(self) -> None:
        """Store-less construction: group data nodes by original type, in
        document order (one pass), into a private type index."""
        guide = self.vguide.source
        type_ids = {guide_type: i for i, guide_type in enumerate(guide.iter_types())}
        index = TypeIndex(self.stats)
        nodes_by_type: dict[GuideType, list[Node]] = {}
        for root in self.document.children:
            stack: list[tuple[Node, tuple[str, ...]]] = [(root, ())]
            # Manual preorder keeps document order per type without sorting.
            while stack:
                node, parent_path = stack.pop()
                path = parent_path + (node.name,)
                stack.extend(
                    (child, path) for child in reversed(node.children)
                )
                guide_type = guide.lookup_path(path)
                if guide_type is None:
                    continue  # type absent from the guide: not addressable
                index.append(type_ids[guide_type], node.pbn)
                nodes_by_type.setdefault(guide_type, []).append(node)
        for guide_type, nodes in nodes_by_type.items():
            self._rows[guide_type] = (index.postings(type_ids[guide_type]), nodes)
        self._type_index = index
        self._type_id = type_ids.__getitem__

    def rows(self, original: GuideType) -> tuple[Sequence[tuple[int, ...]], list[Node]]:
        """The type's keys in document order and the row-aligned node
        list.  Neither may be mutated: the keys are the type index's own
        posting list."""
        entry = self._rows.get(original)
        if entry is None:
            with self._memo_lock:
                entry = self._rows.get(original)
                if entry is None:
                    keys = self.postings(original)
                    # A store-less view reaches here only for a type
                    # without instances; its walk filled the rest.
                    nodes = list(map(self.store.node_by_components, keys)) if keys else []
                    entry = self._rows[original] = (keys, nodes)
        return entry

    # -- navigation ----------------------------------------------------------

    def instances(self, vtype: VType) -> list[VNode]:
        """All virtual nodes of ``vtype``, in original document order."""
        return [VNode(vtype, node, self) for node in self.rows(vtype.original)[1]]

    def roots(self) -> list[VNode]:
        """Virtual root nodes: instances of each root type, grouped by the
        vDataGuide's root order."""
        out: list[VNode] = []
        for root_vtype in self.vguide.roots:
            out.extend(self.instances(root_vtype))
        return out

    def _range(self, original: GuideType, prefix: tuple[int, ...]) -> list[Node]:
        """Nodes of ``original`` whose numbers start with ``prefix``
        (binary-search range scan on the per-type document-order list —
        the in-memory stand-in for a type-index scan, counted as one)."""
        self.stats.index_range_scans += 1
        keys, nodes = self.rows(original)
        low, high = _prefix_bounds(keys, prefix)
        return nodes[low:high]

    def column(self, original: GuideType) -> Optional[Column]:
        """The type index's key column for the type (lazy there; built
        through the codec registry, so stable integer keys come back
        bit-packed while careted rational keys stay a raw tuple view), or
        ``None`` for a type with no instances.  Row ``i`` is
        ``rows(original)[1][i]``; asking for the column resolves no node."""
        return self._type_index.column(self._type_id(original))

    def postings(self, original: GuideType) -> Sequence[tuple[int, ...]]:
        """The type's keys in document order — the type index's own
        posting list, read-only, no node resolved."""
        return self._type_index.postings(self._type_id(original))

    def nodes_in(self, original: GuideType, column: Column, bounds, keys=None) -> list[Node]:
        """The type's nodes in the row runs ``bounds`` of its column
        (``keys``: the runs' keys, when the caller has decoded them).
        Read off the type's node list once that exists; until then a
        request for under a quarter of the type resolves just its own
        rows by key, and a larger one builds the list it would mostly pay
        for anyway — so a view built after an update resolves the rows it
        returns, and a warm view slices."""
        entry = self._rows.get(original)
        if entry is None:
            if 4 * sum(high - low for low, high in bounds) < len(column):
                if keys is None:
                    keys = column.key_runs(bounds)
                return self.nodes_of(original, keys)
            entry = self.rows(original)
        nodes = entry[1]
        return [node for low, high in bounds for node in nodes[low:high]]

    def nodes_of(self, original: GuideType, keys: Sequence[tuple[int, ...]]) -> list[Node]:
        """The type's nodes numbered ``keys`` — what a step that filtered
        on keys resolves, without building the type's whole node list."""
        if self.store is not None:
            return list(map(self.store.node_by_components, keys))
        all_keys, nodes = self.rows(original)
        return [nodes[bisect_left(all_keys, key)] for key in keys]

    def reachable_column(self, vtype: VType) -> Optional[tuple[Column, list[Node]]]:
        """Like :meth:`column` but over the *reachable* instances of one
        virtual type — the candidate set of the ordering axes."""
        entry = self._reachable_columns.get(vtype)
        if entry is None:
            nodes = self.reachable_nodes(vtype)
            if not nodes:
                return None
            with self._memo_lock:
                entry = self._reachable_columns.get(vtype)
                if entry is None:
                    if len(nodes) == len(self.rows(vtype.original)[1]):
                        # nothing orphaned: the type's own column
                        entry = (self.column(vtype.original), nodes)
                    else:
                        column = build_column(
                            [node.pbn.components for node in nodes]
                        )
                        self.stats.column_bytes += column.nbytes
                        entry = (column, nodes)
                    self._reachable_columns[vtype] = entry
        return entry

    def children(self, vnode: VNode) -> list[VNode]:
        """Virtual children of ``vnode``, in virtual sibling order:
        attributes first (the data model's sibling invariant), then
        original document order, with specification order breaking ties."""
        components = vnode.node.pbn.components
        groups: tuple[list, list] = ([], [])
        for child in vnode.vtype.children:
            groups[0 if child.is_attribute else 1].append(
                (child.lca_length, *self.rows(child.original), child)
            )
        self.stats.index_range_scans += len(vnode.vtype.children)
        return [
            VNode(vtype, node, self)
            for group in groups
            for vtype, node in sibling_rows(group, components)
        ]

    def parents(self, vnode: VNode) -> list[VNode]:
        """Virtual parents of ``vnode`` — plural because each copy of the
        node has one (an author under each of a book's titles).

        Only parents that occur in the virtual document are returned: a
        candidate matching the lca prefix can itself be orphaned (its own
        ancestor chain broken), in which case no copy of ``vnode`` sits
        under it.
        """
        parent_vtype = vnode.vtype.parent
        if parent_vtype is None:
            return []
        prefix = vnode.node.pbn.components[: vnode.vtype.lca_length]
        reachable = self._reachable_ids(parent_vtype)
        return [
            VNode(parent_vtype, node, self)
            for node in self._range(parent_vtype.original, prefix)
            if id(node) in reachable
        ]

    def _reachable_ids(self, vtype: VType) -> frozenset:
        """Identity set of the reachable instances of ``vtype`` (memoized
        alongside :meth:`reachable_instances`)."""
        with self._memo_lock:
            ids = self._reachable_id_sets.get(vtype)
            if ids is None:
                ids = frozenset(map(id, self.reachable_nodes(vtype)))
                self._reachable_id_sets[vtype] = ids
            return ids

    def reachable_instances(self, vtype: VType) -> list[VNode]:
        """Instances of ``vtype`` that actually occur in the virtual
        document — i.e. have a chain of virtual ancestors up to a root.

        An instance can be orphaned: with the vDataGuide
        ``title { author }``, an author whose book has no title appears
        nowhere in the transformed document.  ``//author`` must therefore
        filter instances by reachability, which this method computes once
        per type with a structural semi-join against the parent type's
        reachable prefixes (memoized on the virtual document).
        """
        return [VNode(vtype, node, self) for node in self.reachable_nodes(vtype)]

    def reachable_nodes(self, vtype: VType) -> list[Node]:
        """The nodes of :meth:`reachable_instances`, in document order (the
        memo itself: do not mutate it)."""
        cached = self._reachable.get(vtype)
        if cached is None:
            with self._memo_lock:
                cached = self._reachable.get(vtype)
                if cached is None:
                    nodes = self.rows(vtype.original)[1]
                    if vtype.complete_chain():
                        cached = nodes
                    else:
                        k = vtype.lca_length
                        parent_prefixes = {
                            node.pbn.components[:k]
                            for node in self.reachable_nodes(vtype.parent)
                        }
                        cached = [
                            node
                            for node in nodes
                            if node.pbn.components[:k] in parent_prefixes
                        ]
                    self._reachable[vtype] = cached
        return cached

    def sibling_ordinal(self, vnode: VNode) -> int:
        """The node's 1-based position among its virtual siblings.

        Section 5.1: vPBN preserves document order but does not *store*
        sibling ordinals (the final PBN component numbers the original
        sibling order, not the virtual one); when a query needs the
        ordinal it is computed dynamically by queueing the siblings, which
        is what this method does.  For a duplicated node the ordinal under
        its first virtual parent is returned.
        """
        parents = self.parents(vnode)
        siblings = self.children(parents[0]) if parents else self.roots()
        for position, sibling in enumerate(siblings, start=1):
            if sibling == vnode:
                return position
        raise ValueError(f"{vnode!r} is not reachable in this virtual document")

    def vnodes_for(self, node: Node) -> list[VNode]:
        """Every virtual position the original ``node`` occupies a type at
        (instance-level membership under each position is not checked here;
        it depends on the ancestor the node is reached through)."""
        guide_type = self.vguide.source.type_of(node)
        return [
            VNode(vtype, node, self)
            for vtype in self.vguide.vtypes_of(guide_type)
        ]

    def iter_preorder(self) -> Iterator[tuple[VNode, int]]:
        """Yield ``(vnode, depth)`` in virtual document order.  Copies are
        expanded the way the materialized document would contain them."""
        for root in self.roots():
            yield from self._preorder(root, 0)

    def _preorder(self, vnode: VNode, depth: int) -> Iterator[tuple[VNode, int]]:
        yield vnode, depth
        for child in self.children(vnode):
            yield from self._preorder(child, depth + 1)

    # -- materialization (baseline + oracle) ---------------------------------

    def materialize(self, uri: Optional[str] = None) -> Document:
        """Physically construct and renumber the transformed document —
        the "rewrite the data" strategy the paper argues against; used as
        the baseline and the correctness oracle."""
        document, _ = self.materialize_with_provenance(uri)
        return document

    def materialize_with_provenance(
        self, uri: Optional[str] = None
    ) -> tuple[Document, dict[Node, VNode]]:
        """Like :meth:`materialize`, also returning a map from every built
        node back to the virtual position (original node + virtual type) it
        copies.  One original node maps from *several* built nodes when the
        transformation duplicates it; the Theorem 1 tests quantify over
        exactly these copies."""
        provenance: dict[Node, VNode] = {}
        result = Document(uri or f"virtual:{self.document.uri}")
        for root in self.roots():
            result.append(self._build(root, provenance))
        return assign_numbers(result), provenance

    def _build(self, vnode: VNode, provenance: Optional[dict[Node, VNode]] = None) -> Node:
        node = vnode.node
        built: Node
        if node.kind is NodeKind.TEXT:
            built = Text(node.value)  # type: ignore[attr-defined]
        elif node.kind is NodeKind.ATTRIBUTE:
            built = Attribute(node.attr_name, node.value)  # type: ignore[attr-defined]
        else:
            element = Element(node.name)
            for child in self.children(vnode):
                element.append(self._build(child, provenance))
            built = element
        if provenance is not None:
            provenance[built] = vnode
        return built

    def copy_subtree(self, vnode: VNode) -> Node:
        """A free-standing copy of the node's virtual subtree — what a
        query constructor embeds when it uses a virtual node.  Only the
        data below ``vnode`` is touched (the paper's "transform only the
        data needed by the query")."""
        return self._build(vnode)

    def value(self, vnode: VNode) -> str:
        """The node's *transformed value* (Section 6): the serialization of
        its subtree in the virtual hierarchy, stitched from stored
        character ranges by :func:`repro.core.values.write`."""
        from repro.core.values import write

        return "".join(write(vnode, [], vdoc=self))
