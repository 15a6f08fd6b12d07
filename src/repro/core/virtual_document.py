"""Navigation over a virtual hierarchy without materializing it.

A :class:`VirtualDocument` couples a stored (PBN-numbered) document with a
resolved vDataGuide.  A position in the virtual hierarchy is a
:class:`VNode` — an (original node, virtual type) pair; the same original
node can occupy several virtual positions (see the duplication caveat in
:mod:`repro.core.vpbn`).

Navigation never walks the virtual tree top-down from scratch: the children
of a virtual node are found by a binary-search range scan over the type
index's posting lists, using the ``lcaLength`` prefix that defines the
virtual parent/child relation.  Only data the caller actually navigates to
is touched — the paper's core efficiency argument.  Every view is built
over a :class:`~repro.storage.store.DocumentStore` and is a lens: it
borrows the store's posting lists and columns by identity, resolves a
type's node list the first time a query touches the type, and reads
transformed values from the store's heap.  :meth:`VirtualDocument.from_spec`
builds a store over a bare document first (tests, the property oracles,
the paper experiments).

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
from repro.dataguide.guide import GuideType
from repro.pbn.assign import assign_numbers
from repro.pbn.columnar import Column, subtree_bound
from repro.pbn.succinct import build_column
from repro.vdataguide.ast import VGuide, VType
from repro.xmlmodel.nodes import Attribute, Document, Element, Node, NodeKind, Text


class VNode:
    """A position in the virtual hierarchy: an original node under a
    virtual type.  Identity (equality, hashing) is the pair.

    The ``_vdoc`` slot lets the query layer tag a VNode with the
    :class:`VirtualDocument` it came from, and ``_row`` with its row in
    that view's column of its original type, where the step that made it
    knew it; neither carries identity.
    """

    __slots__ = ("vtype", "node", "_vdoc", "_vpbn", "_row")

    def __init__(
        self, vtype: VType, node: Node, vdoc: "Optional[VirtualDocument]" = None, row=None
    ) -> None:
        self.vtype = vtype
        self.node = node
        self._vdoc = vdoc
        self._vpbn: Optional[VPbn] = None
        self._row = row

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
    """A stored document reinterpreted through a vDataGuide.

    :param store: the :class:`~repro.storage.store.DocumentStore` holding
        the original document.  The view borrows its type index and reads
        transformed values from its heap.
    :param vguide: a virtual guide resolved against ``store.guide``, with
        level arrays built (use
        :func:`repro.vdataguide.grammar.parse_vdataguide`).
    :param stats: the counter block navigation reports into; the store's
        when omitted.
    """

    def __init__(self, store, vguide: VGuide, stats=None) -> None:
        self.store = store
        self.document = store.document
        self.vguide = vguide
        #: True for a store's own identity view (``DocumentStore.view``):
        #: its answers are the stored document's nodes.
        self.is_store_view = False
        self.stats = stats if stats is not None else store.stats
        # Per original type: (document-ordered keys, row-aligned nodes).
        # The key list *is* the type index's posting list; an entry
        # appears when a type is first touched.
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
        # Per child vtype: its run under each parent row (child_runs).
        self._child_run_tables: dict = {}
        # Reentrant: reachability recurses parent-ward under the lock.  A
        # view cached by the service is navigated from several engine
        # threads at once; the lock keeps the lazy memos single-build.
        self._memo_lock = threading.RLock()
        self._type_index = store.type_index
        # Not the bound method: through a weak proxy it would hold the
        # store itself strongly.
        self._type_id = lambda guide_type: store.type_id(guide_type)

    @classmethod
    def from_spec(cls, document: Document, spec: str) -> "VirtualDocument":
        """Build over a fresh :class:`~repro.storage.store.DocumentStore`
        of ``document`` (numbered in place if it is not): parses ``spec``,
        resolves it against the store's DataGuide, and runs Algorithm 1."""
        from repro.storage.store import DocumentStore
        from repro.vdataguide.grammar import parse_vdataguide

        store = DocumentStore(document)
        return cls(store, parse_vdataguide(spec, store.guide))

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
                    entry = self._rows[original] = (keys, self.nodes_of(original, keys))
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

    def row_nodes(self, original: GuideType, column: Column, bounds, keys=None):
        """The type's nodes of the row runs ``bounds`` of its column, by
        row (``keys``: the runs' keys, when the caller has decoded them).
        The type's node list once that exists; until then a request for
        under a quarter of the type resolves just its own rows by key (a
        dict), and a larger one builds the list it would mostly pay for
        anyway — so a view built after an update resolves the rows it
        returns, and a warm view indexes its list."""
        if self._rows.get(original) is None and 4 * sum(
            high - low for low, high in bounds
        ) < len(column):
            if keys is None:
                keys = column.key_runs(bounds)
            rows = [row for low, high in bounds for row in range(low, high)]
            return dict(zip(rows, self.nodes_of(original, keys)))
        return self.rows(original)[1]

    def child_runs(self, vtype: VType) -> Optional[list[tuple[int, int]]]:
        """Per row ``r`` of the virtual parent's original type, the
        ``(low, high)`` run of ``vtype``'s rows under row ``r``'s
        ``lcaLength`` prefix (paper Section 5.2) — an incomplete cut's
        (``title { author }``) too.  One prefix sweep on first use, kept
        with the (immutable) view; ``None`` for a type without instances."""
        column = self.column(vtype.original)
        table = self._child_run_tables.get(id(vtype))
        if table is None and column is not None:
            with self._memo_lock:
                keys = distinct = self.postings(vtype.parent.original)
                if not vtype.complete_cut():  # parent rows share prefixes
                    lca = vtype.lca_length
                    keys = [key[:lca] for key in keys]
                    distinct = list(dict.fromkeys(keys))  # still sorted
                table, scans = column.prefix_runs(distinct)
                self.stats.index_range_scans += scans
                if distinct is not keys:
                    run_of = dict(zip(distinct, table))
                    table = [run_of[key] for key in keys]
                self._child_run_tables[id(vtype)] = table
        return table

    def nodes_of(self, original: GuideType, keys: Sequence[tuple[int, ...]]) -> list[Node]:
        """The type's nodes numbered ``keys`` — what a step that filtered
        on keys resolves, without building the type's whole node list."""
        return list(map(self.store.node_by_components, keys))

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
