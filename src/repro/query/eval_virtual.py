"""Virtual axis evaluation: the paper's contribution applied to queries.

Steps over a ``virtualDoc(...)`` source navigate the *virtual* hierarchy
using vPBN machinery over the untouched original numbering:

* ``child``/``attribute`` steps are prefix-range scans on the per-type
  posting lists — the prefix is the ``lcaLength`` components shared with
  the virtual parent (Section 5.2's instance relation);
* ``descendant`` steps expand child ranges level by level through the
  vDataGuide (each hop one range scan), touching only data below the
  context node;
* ``parent``/``ancestor`` steps run the inverse range scans;
* sibling and ordering axes filter candidate instances with the Section 5
  predicates (``vPreceding``, ``vFollowing-sibling``, ...), each test one
  vPBN comparison, counted in ``stats.comparisons``.

Results come back in *virtual* document order.
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from typing import Optional

from repro.core.virtual_document import VirtualDocument, VNode
from repro.core import vpbn
from repro.obs.trace import span_add
from repro.pbn.columnar import subtree_bound
from repro.query import joins
from repro.query.ast import NodeTest
from repro.query.items import VirtualDocItem, attach_vdoc
from repro.storage.stats import StorageStats
from repro.vdataguide.ast import VType
from repro.xmlmodel.nodes import TEXT_NAME


def _components_of(vnode: VNode) -> tuple:
    """Sort key for same-vtype candidate lists (plain document order)."""
    return vnode.node.pbn.components


class VirtualNavigator:
    """Axis steps over virtual nodes and virtual document handles.

    :param metrics: optional service metrics block; every :meth:`step`
        counts one ``navigator.virtual.steps``.
    """

    def __init__(self, stats: Optional[StorageStats] = None, metrics=None) -> None:
        self.stats = stats if stats is not None else StorageStats()
        self.metrics = metrics

    def _order_key_fn(self, vdoc: VirtualDocument):
        """A plain sort key equal to :func:`vpbn.compare_virtual_order`,
        or ``None`` when the view admits no such key.

        The key is one token per virtual level — the ancestor identity the
        stratified comparison inspects: (attributes-first rank, the
        instance's *full* identifying key, vDataGuide type order) — headed
        by the vDataGuide tree index for cross-tree order.  Tuple-prefix
        order puts ancestors before their descendants, so lexicographic
        comparison is virtual preorder.

        An inverted level identifies its ancestor by an *incomplete*
        prefix (``title { author }``: an author pins its title only up to
        the shared book).  The token resolves that prefix to the unique
        full instance key by one bisect in the type's column, which is
        sound only when (a) each incomplete type is the lone type at its
        virtual level, so the comparator never weighs an incomplete key
        against a different type's key, and (b) the incomplete prefix
        identifies exactly one instance — the comparator's
        prefix-compatibility then coincides with token equality.  Views
        failing either check return ``None`` (comparator path).

        Memoized *on the vdoc* (vdocs are cached per view and outlive any
        one evaluator), under its reentrant memo lock like the other lazy
        indexes.
        """
        try:
            return vdoc._order_key_memo
        except AttributeError:
            pass
        with vdoc._memo_lock:
            try:
                return vdoc._order_key_memo
            except AttributeError:
                fn = self._build_order_key(vdoc)
                vdoc._order_key_memo = fn
                return fn

    def _build_order_key(self, vdoc: VirtualDocument):
        min_cut: dict[int, int] = {}
        by_level: dict[tuple, set[int]] = {}
        chain_types: dict[int, VType] = {}
        for vtype in vdoc.vguide.iter_vtypes():
            for level, (t, cut) in enumerate(zip(vtype.chain(), vtype.cuts())):
                chain_types[id(t)] = t
                prev = min_cut.get(id(t))
                if prev is None or cut < prev:
                    min_cut[id(t)] = cut
                by_level.setdefault(
                    (t.pbn.components[0], level), set()
                ).add(id(t))
        columns: dict[int, object] = {}
        for t in chain_types.values():
            if min_cut[id(t)] >= t.original.length:
                continue
            # Incomplete identity: must be alone at its level, resolvable,
            # and unique per incomplete prefix.
            tree_level = (t.pbn.components[0], t.level - 1)
            if len(by_level[tree_level]) > 1:
                return None
            column = vdoc.column(t.original)
            if column is None:
                continue  # no instances: the token is never built
            if not column.distinct_prefixes(min_cut[id(t)]):
                return None
            columns[id(t)] = column

        plans: dict[int, tuple] = {}
        # One resolution memo per incomplete chain type: equal prefixes in
        # *different* columns may name different instances, so the caches
        # must not be shared across types.
        caches: dict[int, dict] = {tid: {} for tid in columns}
        for vtype in vdoc.vguide.iter_vtypes():
            plans[id(vtype)] = (
                vtype.pbn.components[0],
                tuple(
                    (
                        0 if t.is_attribute else 1,
                        cut,
                        columns.get(id(t)) if cut < t.original.length else None,
                        caches.get(id(t)),
                        t.pbn.components,
                    )
                    for t, cut in zip(vtype.chain(), vtype.cuts())
                ),
            )

        def order_key(vnode: VNode) -> tuple:
            tree, tokens = plans[id(vnode.vtype)]
            comps = vnode.node.pbn.components
            key: list = [tree]
            for rank, cut, column, cache, type_order in tokens:
                prefix = comps[:cut]
                if column is not None:
                    full = cache.get(prefix)
                    if full is None:
                        full = column.keys[column.lower(prefix)]
                        cache[prefix] = full
                    prefix = full
                key.append((rank, prefix, type_order))
            return tuple(key)

        return order_key

    # -- type filtering -----------------------------------------------------------

    def _vtype_matches(self, vtype: VType, test: NodeTest, axis: str) -> bool:
        name = vtype.name
        if axis == "attribute":
            if not vtype.is_attribute:
                return False
            return test.kind in ("node", "wildcard") or (
                test.kind == "name" and name == "@" + test.name
            )
        if vtype.is_attribute:
            return False
        if test.kind == "node":
            return True
        if test.kind == "text":
            return name == TEXT_NAME
        is_element = not vtype.is_text
        if test.kind == "wildcard":
            return is_element
        return is_element and name == test.name

    # -- step dispatch -----------------------------------------------------------

    def step(self, item, axis: str, test: NodeTest, keep=None) -> list:
        """Items on ``axis`` of ``item`` satisfying ``test``, in axis order
        (virtual document order; reversed for reverse axes).  ``keep`` (a
        :class:`~repro.storage.cas_index.KeyFilter`, document items only)
        drops candidates by key before their nodes are resolved."""
        if self.metrics is not None:
            self.metrics.incr("navigator.virtual.steps")
        span_add("steps.virtual")
        if isinstance(item, VirtualDocItem):
            return self._document_step(item.vdoc, axis, test, keep)
        assert isinstance(item, VNode)
        vdoc: VirtualDocument = item._vdoc  # attached by the evaluator
        if axis == "parent" and item.vtype.parent is None:
            # The parent of a virtual root is the virtual document node,
            # mirroring the document node a materialized tree would have.
            return [VirtualDocItem(vdoc)] if test.kind == "node" else []
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return [attach_vdoc(found, vdoc) for found in handler(vdoc, item, test)]

    def _document_step(
        self, vdoc: VirtualDocument, axis: str, test: NodeTest, keep=None
    ) -> list:
        instances = (
            vdoc.reachable_instances
            if keep is None
            else lambda vtype: self._kept_instances(vdoc, vtype, keep)
        )
        if axis == "child":
            found = [
                vnode
                for vtype in vdoc.vguide.roots
                if self._vtype_matches(vtype, test, axis)
                for vnode in instances(vtype)
            ]
        elif axis in ("descendant", "descendant-or-self"):
            runs = [
                instances(vtype)
                for vtype in vdoc.vguide.iter_vtypes()
                if self._vtype_matches(vtype, test, axis)
            ]
            if len(runs) == 1:
                # One type's instances: distinct, and already in virtual
                # document order (plain key order within a type).
                found = runs[0]
            else:
                found = self._sort([vnode for run in runs for vnode in run])
            if axis == "descendant-or-self" and test.kind == "node":
                return [VirtualDocItem(vdoc), *found]
        elif axis == "self" and test.kind == "node":
            return [VirtualDocItem(vdoc)]
        else:
            return []
        return found  # instances come tagged with their view

    def _kept_instances(self, vdoc: VirtualDocument, vtype: VType, keep) -> list[VNode]:
        """The reachable instances of ``vtype`` whose keys pass ``keep``,
        in document order.  Every instance of a root type is reachable,
        so its posting list is filtered as it stands and only the
        survivors' nodes are resolved."""
        accepts = keep.accepts(vtype)
        if vtype.parent is None:
            keys = [key for key in vdoc.postings(vtype.original) if accepts(key)]
            nodes = vdoc.nodes_of(vtype.original, keys)
        else:
            entry = vdoc.reachable_column(vtype)
            if entry is None:
                return []
            column, nodes = entry
            nodes = [
                node for key, node in zip(column.keys[:], nodes) if accepts(key)
            ]
        return [VNode(vtype, node, vdoc) for node in nodes]

    def _sort(self, vnodes: list[VNode]) -> list[VNode]:
        """Virtual document order with duplicate elimination."""
        unique = {(id(v.vtype), id(v.node)): v for v in vnodes}
        out = list(unique.values())
        if len(out) < 2:
            return out
        first = out[0].vtype
        if all(v.vtype is first for v in out):
            # One virtual type: identical level arrays, so plain component
            # order *is* virtual document order — no comparator, no VPbn.
            out.sort(key=_components_of)
            return out
        order_key = (
            self._order_key_fn(out[0]._vdoc)
            if out[0]._vdoc is not None
            else None
        )
        if order_key is not None:
            out.sort(key=order_key)
            return out
        # Mixed types: build each node's document-order key (its vPBN)
        # once per candidate list and reuse it across every comparator
        # call instead of re-deriving it pairwise.
        decorated = [(v.vpbn, v) for v in out]
        decorated.sort(
            key=cmp_to_key(lambda a, b: vpbn.compare_virtual_order(a[0], b[0]))
        )
        return [v for _, v in decorated]

    # -- axes ------------------------------------------------------------------------

    def _axis_self(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        if self._vtype_matches(vnode.vtype, test, "self"):
            return [vnode]
        return []

    def _child_like(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest, axis: str):
        # Mirrors VirtualDocument.children (attributes first, then original
        # document order, then specification order) with the test applied;
        # key-tuple sorting avoids per-pair vPBN comparisons.
        found: list = []
        for position, child_vtype in enumerate(vnode.vtype.children):
            if not self._vtype_matches(child_vtype, test, axis):
                continue
            prefix = vnode.node.pbn.components[: child_vtype.lca_length]
            group = 0 if child_vtype.is_attribute else 1
            for node in vdoc._range(child_vtype.original, prefix):
                found.append(
                    (group, node.pbn.components, position, VNode(child_vtype, node, vdoc))
                )
        found.sort(key=lambda item: item[:3])
        return [vnode for (_, _, _, vnode) in found]

    def _axis_child(self, vdoc, vnode, test):
        return self._child_like(vdoc, vnode, test, "child")

    def _axis_attribute(self, vdoc, vnode, test):
        return self._child_like(vdoc, vnode, test, "attribute")

    def _axis_descendant(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        found: list[VNode] = []
        frontier = [vnode]
        while frontier:
            next_frontier: list[VNode] = []
            for current in frontier:
                for child in vdoc.children(current):
                    if child.vtype.is_attribute:
                        continue
                    next_frontier.append(child)
                    if self._vtype_matches(child.vtype, test, "descendant"):
                        found.append(child)
            frontier = next_frontier
        return self._sort(found)

    def _axis_descendant_or_self(self, vdoc, vnode, test):
        found = self._axis_descendant(vdoc, vnode, test)
        if self._vtype_matches(vnode.vtype, test, "descendant-or-self"):
            return self._sort([vnode, *found])
        return found

    def _axis_parent(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        if vnode.vtype.parent is None:
            return []
        if not self._vtype_matches(vnode.vtype.parent, test, "parent"):
            return []
        # A duplicated node has one parent per copy; like every reverse
        # axis the navigator reports them context-node-outward (reverse
        # document order).
        return list(reversed(self._sort(vdoc.parents(vnode))))

    def _axis_ancestor(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        found: list[VNode] = []
        frontier = vdoc.parents(vnode)
        while frontier:
            found.extend(
                v for v in frontier if self._vtype_matches(v.vtype, test, "ancestor")
            )
            next_frontier: list[VNode] = []
            for current in frontier:
                next_frontier.extend(vdoc.parents(current))
            frontier = next_frontier
        # Reverse axis order: nearest ancestors first.
        return list(reversed(self._sort(found)))

    def _axis_ancestor_or_self(self, vdoc, vnode, test):
        head = (
            [vnode]
            if self._vtype_matches(vnode.vtype, test, "ancestor-or-self")
            else []
        )
        return head + self._axis_ancestor(vdoc, vnode, test)

    def _sibling_candidates(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        parent_vtype = vnode.vtype.parent
        if parent_vtype is None:
            vtypes = [
                v for v in vdoc.vguide.roots if self._vtype_matches(v, test, "sibling")
            ]
            return [vnode for v in vtypes for vnode in vdoc.instances(v)]
        found: list[VNode] = []
        for parent in vdoc.parents(vnode):
            for sibling_vtype in parent_vtype.children:
                if not self._vtype_matches(sibling_vtype, test, "sibling"):
                    continue
                prefix = parent.node.pbn.components[: sibling_vtype.lca_length]
                found.extend(
                    VNode(sibling_vtype, node, vdoc)
                    for node in vdoc._range(sibling_vtype.original, prefix)
                )
        return found

    def _axis_following_sibling(self, vdoc, vnode, test):
        reference = vnode.vpbn
        found = []
        for candidate in self._sibling_candidates(vdoc, vnode, test):
            self.stats.comparisons += 1
            if vpbn.v_following_sibling(candidate.vpbn, reference):
                found.append(candidate)
        return self._sort(found)

    def _axis_preceding_sibling(self, vdoc, vnode, test):
        reference = vnode.vpbn
        found = []
        for candidate in self._sibling_candidates(vdoc, vnode, test):
            self.stats.comparisons += 1
            if vpbn.v_preceding_sibling(candidate.vpbn, reference):
                found.append(candidate)
        return list(reversed(self._sort(found)))

    def _ordering_candidates(self, vdoc: VirtualDocument, test: NodeTest, axis: str):
        for vtype in vdoc.vguide.iter_vtypes():
            if self._vtype_matches(vtype, test, axis):
                yield from vdoc.reachable_instances(vtype)

    def _axis_following(self, vdoc, vnode, test):
        reference = vnode.vpbn
        found = []
        for candidate in self._ordering_candidates(vdoc, test, "following"):
            self.stats.comparisons += 1
            if vpbn.v_following(candidate.vpbn, reference):
                found.append(candidate)
        return self._sort(found)

    def _axis_preceding(self, vdoc, vnode, test):
        reference = vnode.vpbn
        found = []
        for candidate in self._ordering_candidates(vdoc, test, "preceding"):
            self.stats.comparisons += 1
            if vpbn.v_preceding(candidate.vpbn, reference):
                found.append(candidate)
        return list(reversed(self._sort(found)))

    # -- batch (columnar) kernels --------------------------------------------------

    def step_many(self, vnodes: list, axis: str, test: NodeTest, keep=None):
        """Evaluate a predicate-free step over a whole context set of
        :class:`VNode` items (same virtual document) in one pass with the
        columnar merge-join kernels.

        Returns the step's *final* result — deduplicated, in virtual
        document order, exactly what the evaluator's per-item loop plus
        ``document_order`` would produce — or ``None`` when no kernel
        covers the axis (the caller falls back to the scalar path).

        ``keep`` (a :class:`~repro.storage.cas_index.KeyFilter`; child,
        attribute and descendant axes only) is the step's value
        predicates as a key test: rows it rejects are dropped before a
        node is resolved or a :class:`VNode` built for them.
        """
        handler = self._BATCH_AXES.get(axis)
        if handler is None or (keep is not None and axis not in joins.KEYS_FIRST_AXES):
            return None
        vdoc: VirtualDocument = vnodes[0]._vdoc
        if self._order_key_fn(vdoc) is None:
            # Virtual order on this view is not key-linearizable — on
            # recursive or identity-colliding views the stratified
            # comparator need not even be transitive, so two sorting
            # algorithms can pick different linearizations of the same
            # set.  Decline, and let the scalar path define the order.
            return None
        if keep is None:
            out = handler(self, vdoc, vnodes, test, axis)
        else:
            out = handler(self, vdoc, vnodes, test, axis, keep)
        if out is None:
            return None
        if self.metrics is not None:
            self.metrics.incr("navigator.virtual.steps", len(vnodes))
        span_add("steps.virtual", len(vnodes))
        return out

    def _run_rows(self, vdoc, vtype: VType, column, bounds, keep):
        """``(keys, nodes)`` of the rows in ``bounds`` — with a key filter
        the keys are tested first and only survivors resolve a node."""
        keys = column.key_runs(bounds)  # one bulk decode
        if keep is None:
            return keys, vdoc.nodes_in(vtype.original, column, bounds, keys)
        accepts = keep.accepts(vtype)
        keys = [key for key in keys if accepts(key)]
        return keys, vdoc.nodes_of(vtype.original, keys)

    def _grouped(self, vnodes: list) -> list[tuple[VType, list[tuple], list]]:
        """Context nodes grouped by virtual type: ``(vtype, keys, vnodes)``
        with keys and vnodes row-aligned."""
        groups: dict[int, tuple[VType, list[tuple], list]] = {}
        for vnode in vnodes:
            entry = groups.get(id(vnode.vtype))
            if entry is None:
                groups[id(vnode.vtype)] = (
                    vnode.vtype,
                    [vnode.node.pbn.components],
                    [vnode],
                )
            else:
                entry[1].append(vnode.node.pbn.components)
                entry[2].append(vnode)
        return list(groups.values())

    def _batch_child_like(self, vdoc, vnodes, test, axis, keep=None):
        single = len(vnodes) == 1
        triples: list = []
        found: list[VNode] = []
        for vtype, ctx_keys, _ in self._grouped(vnodes):
            for position, child_vtype in enumerate(vtype.children):
                if not self._vtype_matches(child_vtype, test, axis):
                    continue
                column = vdoc.column(child_vtype.original)
                if column is None:
                    self.stats.index_range_scans += 1
                    continue
                lca = child_vtype.lca_length
                prefixes = sorted({key[:lca] for key in ctx_keys})
                bounds, scans = joins.prefix_run_bounds(column, prefixes)
                self.stats.index_range_scans += scans
                if single:
                    group = 0 if child_vtype.is_attribute else 1
                    run_keys, run_nodes = self._run_rows(
                        vdoc, child_vtype, column, bounds, keep
                    )
                    triples.extend(
                        (group, key, position, VNode(child_vtype, node, vdoc))
                        for key, node in zip(run_keys, run_nodes)
                    )
                else:
                    if keep is None:  # no key is needed: none is decoded
                        run_nodes = vdoc.nodes_in(
                            child_vtype.original, column, bounds
                        )
                    else:
                        _, run_nodes = self._run_rows(
                            vdoc, child_vtype, column, bounds, keep
                        )
                    found.extend(
                        VNode(child_vtype, node, vdoc) for node in run_nodes
                    )
        if single:
            # One context: virtual *sibling* order (attributes first, then
            # document order, then specification order) — mirrors
            # _child_like byte for byte.
            triples.sort(key=lambda item: item[:3])
            return [item[3] for item in triples]
        return self._sort(found)

    def _merge_vtype_runs(
        self, buckets: "dict[int, tuple[VType, dict[tuple, VNode]]]"
    ) -> list[VNode]:
        """Virtual document order from per-vtype candidate buckets.

        Within one vtype, plain key order *is* virtual order, so each
        bucket yields a sorted run and the global order is a k-way merge
        — O(n log k) comparator calls instead of the O(n log n) a full
        ``_sort`` pays (k is the handful of matching vtypes).
        """
        runs = [
            [by_key[key] for key in sorted(by_key)]
            for _, by_key in buckets.values()
            if by_key
        ]
        if not runs:
            return []
        if len(runs) == 1:
            return runs[0]
        vdoc = runs[0][0]._vdoc
        order_key = self._order_key_fn(vdoc) if vdoc is not None else None
        if order_key is not None:
            return list(heapq.merge(*runs, key=order_key))
        order = cmp_to_key(
            lambda a, b: vpbn.compare_virtual_order(a.vpbn, b.vpbn)
        )
        return list(heapq.merge(*runs, key=order))

    def _batch_descendant(self, vdoc, vnodes, test, axis, keep=None):
        or_self = axis == "descendant-or-self"
        order_key = self._order_key_fn(vdoc)
        if order_key is not None:
            found = self._descendant_by_key(
                vdoc, vnodes, test, or_self, order_key, keep
            )
            if found is not None:
                return found
        if keep is not None:
            return None  # the guard path below keeps no keys to filter on
        # Accumulate per vtype (keyed by components, which also dedups
        # candidates reached through nested contexts) and merge at the end.
        buckets: dict[int, tuple[VType, dict[tuple, VNode]]] = {}

        def bucket(vtype: VType) -> dict[tuple, VNode]:
            slot = buckets.get(id(vtype))
            if slot is None:
                slot = buckets[id(vtype)] = (vtype, {})
            return slot[1]

        if or_self:
            for vnode in vnodes:
                if self._vtype_matches(vnode.vtype, test, axis):
                    bucket(vnode.vtype)[vnode.node.pbn.components] = vnode
        frontier: dict[int, tuple[VType, list[tuple]]] = {}
        for vtype, ctx_keys, _ in self._grouped(vnodes):
            frontier[id(vtype)] = (vtype, sorted(set(ctx_keys)))
        while frontier:
            next_frontier: dict[int, tuple[VType, list[tuple]]] = {}
            for vtype, keys in frontier.values():
                for child_vtype in vtype.children:
                    if child_vtype.is_attribute:
                        continue
                    column = vdoc.column(child_vtype.original)
                    if column is None:
                        self.stats.index_range_scans += 1
                        continue
                    lca = child_vtype.lca_length
                    prefixes = sorted({key[:lca] for key in keys})
                    bounds, scans = joins.prefix_run_bounds(column, prefixes)
                    self.stats.index_range_scans += scans
                    run_keys, run_nodes = self._run_rows(
                        vdoc, child_vtype, column, bounds, None
                    )
                    if not run_keys:
                        continue
                    slot = next_frontier.get(id(child_vtype))
                    if slot is None:
                        next_frontier[id(child_vtype)] = (child_vtype, run_keys)
                    else:
                        slot[1].extend(run_keys)
                    if self._vtype_matches(child_vtype, test, "descendant"):
                        by_key = bucket(child_vtype)
                        for key, node in zip(run_keys, run_nodes):
                            by_key[key] = VNode(child_vtype, node, vdoc)
            frontier = {
                key: (vtype, sorted(set(keys)))
                for key, (vtype, keys) in next_frontier.items()
            }
        return self._merge_vtype_runs(buckets)

    def _descendant_by_key(self, vdoc, vnodes, test, or_self, order_key, keep):
        """Descendant expansion with *incremental* order keys.

        A candidate's order key is its virtual parent's key plus one
        complete own-level token: the child chain extends the parent
        chain, and at every shared level the child's token resolves to
        the same unique ancestor instance the parent's own token names
        (a complete cut slices the child's components down to the
        physical ancestor — which a complete cut makes the virtual
        parent too — and an incomplete cut resolves through the column,
        whose uniqueness the order-key gate already certified).  So the
        frontier carries ``components -> order key`` maps, each child
        costs one tuple concatenation instead of an ``order_key`` call,
        and the final order is one plain sort of precomputed tuples —
        no k-way merge, no comparator.

        Returns ``None`` (caller falls back to the bucket-and-merge
        path) if two frontier parents disagree on a shared LCA prefix —
        unreachable when the gate holds, kept as a cheap guard.
        """
        out: dict[tuple, VNode] = {}
        if or_self:
            for vnode in vnodes:
                if self._vtype_matches(
                    vnode.vtype, test, "descendant-or-self"
                ) and (
                    keep is None
                    or keep.accepts(vnode.vtype)(vnode.node.pbn.components)
                ):
                    out[order_key(vnode)] = vnode
        frontier: dict[int, tuple[VType, dict[tuple, tuple]]] = {}
        for vtype, keys, ctx_vnodes in self._grouped(vnodes):
            keymap = frontier.setdefault(id(vtype), (vtype, {}))[1]
            for key, vnode in zip(keys, ctx_vnodes):
                if key not in keymap:
                    keymap[key] = order_key(vnode)
        while frontier:
            next_frontier: dict[int, tuple[VType, dict[tuple, tuple]]] = {}
            for vtype, keymap in frontier.values():
                for child_vtype in vtype.children:
                    if child_vtype.is_attribute:
                        continue
                    column = vdoc.column(child_vtype.original)
                    if column is None:
                        self.stats.index_range_scans += 1
                        continue
                    lca = child_vtype.lca_length
                    prefix_map: dict[tuple, tuple] = {}
                    for key, okey in keymap.items():
                        prefix = key[:lca]
                        existing = prefix_map.get(prefix)
                        if existing is None:
                            prefix_map[prefix] = okey
                        elif existing != okey:
                            return None
                    collect = self._vtype_matches(child_vtype, test, "descendant")
                    # Collected rows: by position without a key filter,
                    # by key — survivors only — with one.
                    accepts = nodes = None
                    if collect and keep is not None:
                        accepts = keep.accepts(child_vtype)
                    elif collect:
                        nodes = vdoc.rows(child_vtype.original)[1]
                    kept_okeys: list = []
                    kept_keys: list = []
                    child_order = child_vtype.pbn.components
                    slot = next_frontier.get(id(child_vtype))
                    if slot is None:
                        slot = next_frontier[id(child_vtype)] = (child_vtype, {})
                    child_map = slot[1]
                    sorted_prefixes = sorted(prefix_map)
                    bounds, scans = joins.prefix_run_bounds(
                        column, sorted_prefixes
                    )
                    run_keys = column.key_runs(bounds)  # one bulk decode
                    pos = 0
                    for prefix, (low, high) in zip(sorted_prefixes, bounds):
                        parent_okey = prefix_map[prefix]
                        for offset in range(high - low):
                            comps = run_keys[pos]
                            pos += 1
                            okey = parent_okey + ((1, comps, child_order),)
                            child_map[comps] = okey
                            if nodes is not None:
                                out[okey] = VNode(
                                    child_vtype, nodes[low + offset], vdoc
                                )
                            elif accepts is not None and accepts(comps):
                                kept_okeys.append(okey)
                                kept_keys.append(comps)
                    for okey, node in zip(
                        kept_okeys, vdoc.nodes_of(child_vtype.original, kept_keys)
                    ):
                        out[okey] = VNode(child_vtype, node, vdoc)
                    self.stats.index_range_scans += scans
            frontier = next_frontier
        return [out[okey] for okey in sorted(out)]

    def _batch_ordering(self, vdoc, vnodes, test, axis):
        preceding = axis == "preceding"
        groups = self._grouped(vnodes)
        stats = self.stats
        found: list[VNode] = []
        for cand_vtype in vdoc.vguide.iter_vtypes():
            if not self._vtype_matches(cand_vtype, test, axis):
                continue
            entry = vdoc.reachable_column(cand_vtype)
            if entry is None:
                continue
            column, nodes = entry
            total = len(column.keys)
            cand_root = cand_vtype.pbn.components[0]
            accept_upto = 0      # preceding: the qualifying prefix [0, upto)
            accept_from = total  # following: the qualifying suffix [from, total)
            band_rows: set[int] = set()
            for ctx_vtype, ctx_keys, ctx_vnodes in groups:
                ctx_root = ctx_vtype.pbn.components[0]
                if cand_root != ctx_root:
                    # Cross-tree: the forest order of the virtual roots
                    # decides for the whole column at once.
                    stats.comparisons += 1
                    if preceding:
                        if cand_root < ctx_root:
                            accept_upto = total
                    elif cand_root > ctx_root:
                        accept_from = 0
                    continue
                if cand_vtype is ctx_vtype:
                    # Same type, same level arrays: plain component order,
                    # never kin — one bisect against the extreme context.
                    stats.comparisons += 1
                    if preceding:
                        bound = max(ctx_keys)
                        accept_upto = max(accept_upto, column.lower(bound))
                    else:
                        bound = min(ctx_keys)
                        accept_from = min(
                            accept_from, column.lower(subtree_bound(bound))
                        )
                    continue
                limit = joins.aligned_limit(cand_vtype, ctx_vtype)
                if limit == 0:
                    # No aligned prefix (pathological arrays): scalar-check
                    # the column against this group.
                    band = range(total)
                    refs = ctx_vnodes
                else:
                    stats.comparisons += 1
                    if preceding:
                        pivot = max(key[:limit] for key in ctx_keys)
                        accept_upto = max(accept_upto, column.lower(pivot))
                    else:
                        pivot = min(key[:limit] for key in ctx_keys)
                    band_lo, band_hi = column.prefix_bounds(pivot)
                    if not preceding:
                        accept_from = min(accept_from, band_hi)
                    band = range(band_lo, band_hi)
                    refs = [
                        vnode
                        for key, vnode in zip(ctx_keys, ctx_vnodes)
                        if key[:limit] == pivot
                    ]
                if not band:
                    continue
                predicate = vpbn.v_preceding if preceding else vpbn.v_following
                references = [vnode.vpbn for vnode in refs]
                for row in band:
                    candidate = VNode(cand_vtype, nodes[row], vdoc)
                    number = candidate.vpbn
                    for reference in references:
                        stats.comparisons += 1
                        if predicate(number, reference):
                            band_rows.add(row)
                            break
            rows = band_rows
            rows.update(range(accept_upto) if preceding else range(accept_from, total))
            found.extend(VNode(cand_vtype, nodes[row], vdoc) for row in rows)
        return self._sort(found)

    def _batch_siblings(self, vdoc, vnodes, test, axis):
        preceding = axis == "preceding-sibling"
        stats = self.stats
        found: list[VNode] = []
        for vnode in vnodes:
            if vnode.vtype.is_attribute:
                continue  # attributes have no siblings (XPath convention)
            ref_key = vnode.node.pbn.components
            parent_vtype = vnode.vtype.parent
            if parent_vtype is None:
                # Virtual roots of the whole forest are siblings under the
                # document node; distinct root types order by forest order.
                ref_root = vnode.vtype.pbn.components[0]
                for cand_vtype in vdoc.vguide.roots:
                    if cand_vtype.is_attribute or not self._vtype_matches(
                        cand_vtype, test, "sibling"
                    ):
                        continue
                    column = vdoc.column(cand_vtype.original)
                    self.stats.index_range_scans += 1
                    if column is None:
                        continue
                    nodes = vdoc.rows(cand_vtype.original)[1]
                    stats.comparisons += 1
                    if cand_vtype is vnode.vtype:
                        if preceding:
                            rows = range(column.lower(ref_key))
                        else:
                            rows = range(
                                column.lower(subtree_bound(ref_key)), len(column.keys)
                            )
                        found.extend(
                            VNode(cand_vtype, nodes[row], vdoc) for row in rows
                        )
                    else:
                        cand_root = cand_vtype.pbn.components[0]
                        wanted = (
                            cand_root < ref_root if preceding else cand_root > ref_root
                        )
                        if wanted:
                            found.extend(
                                VNode(cand_vtype, node, vdoc) for node in nodes
                            )
                continue
            reference = vnode.vpbn
            predicate = (
                vpbn.v_preceding_sibling if preceding else vpbn.v_following_sibling
            )
            for parent in vdoc.parents(vnode):
                parent_key = parent.node.pbn.components
                for sibling_vtype in parent_vtype.children:
                    if not self._vtype_matches(sibling_vtype, test, "sibling"):
                        continue
                    if sibling_vtype.is_attribute:
                        continue  # can never satisfy the sibling predicates
                    column = vdoc.column(sibling_vtype.original)
                    self.stats.index_range_scans += 1
                    if column is None:
                        continue
                    nodes = vdoc.rows(sibling_vtype.original)[1]
                    low, high = column.prefix_bounds(
                        parent_key[: sibling_vtype.lca_length]
                    )
                    if sibling_vtype is vnode.vtype:
                        # Same type: the sibling run is the cut-prefix run,
                        # split at the context key — three bisects total.
                        cut = vnode.vtype.cuts()[parent_vtype.level - 1]
                        run_lo, run_hi = joins.sibling_run(
                            column, ref_key[:cut], low, high
                        )
                        stats.comparisons += 1
                        if preceding:
                            start, end = run_lo, column.lower(ref_key, run_lo, run_hi)
                        else:
                            start = column.lower(
                                subtree_bound(ref_key), run_lo, run_hi
                            )
                            end = run_hi
                        found.extend(
                            VNode(sibling_vtype, nodes[row], vdoc)
                            for row in range(start, end)
                        )
                    else:
                        # Cross-type siblings share a parent run but not a
                        # level array — scalar predicate over the (small) run.
                        for row in range(low, high):
                            candidate = VNode(sibling_vtype, nodes[row], vdoc)
                            stats.comparisons += 1
                            if predicate(candidate.vpbn, reference):
                                found.append(candidate)
        return self._sort(found)

    _BATCH_AXES = {
        "child": _batch_child_like,
        "attribute": _batch_child_like,
        "descendant": _batch_descendant,
        "descendant-or-self": _batch_descendant,
        "following": _batch_ordering,
        "preceding": _batch_ordering,
        "following-sibling": _batch_siblings,
        "preceding-sibling": _batch_siblings,
    }

    # -- aggregation (bounds) kernels ------------------------------------------------

    def aggregate_many(self, vnodes: list, axis: str, test: NodeTest, kind: str):
        """``count``/``sum`` of a predicate-free ``child``/``attribute``
        step as run bounds over the child types' shared posting lists
        (``lcaLength`` prefixes, paper Section 5.2) — no :class:`VNode`
        is built, and a sum folds each run through the child type's
        *virtual-value* CAS prefix sums.

        Returns ``(value, rows)`` or ``None`` to decline (other axes,
        non-linearizable views, values a prefix sum cannot add exactly).
        """
        if axis not in ("child", "attribute"):
            return None
        vdoc: VirtualDocument = vnodes[0]._vdoc
        if self._order_key_fn(vdoc) is None:
            # Same guard as step_many: on non-linearizable views the
            # scalar path defines the semantics, so stay off them even
            # though a count never orders anything.
            return None
        runs: list[tuple[VType, int, int]] = []
        for vtype, ctx_keys, _ in self._grouped(vnodes):
            for child_vtype in vtype.children:
                if not self._vtype_matches(child_vtype, test, axis):
                    continue
                column = vdoc.column(child_vtype.original)
                if column is None:
                    self.stats.index_range_scans += 1
                    continue
                lca = child_vtype.lca_length
                prefixes = sorted({key[:lca] for key in ctx_keys})
                bounds, scans = joins.prefix_run_bounds(column, prefixes)
                self.stats.index_range_scans += scans
                runs.extend(
                    (child_vtype, low, high) for low, high in bounds
                )
        rows = sum(high - low for _, low, high in runs)
        if kind == "count":
            value: object = rows
        elif rows == 0:
            value = 0
        else:
            from repro.storage.cas_index import virtual_cas_columns

            total = 0
            nan = False
            for child_vtype, low, high in runs:
                if low == high:
                    continue
                columns = virtual_cas_columns(vdoc, child_vtype)
                part = columns.sum_over(low, high) if columns is not None else None
                if part is None:
                    return None
                if part != part:  # a NaN-poisoned run: the whole sum is NaN
                    nan = True
                else:
                    total += part
            value = float("nan") if nan else total
        if self.metrics is not None:
            self.metrics.incr("navigator.virtual.steps", len(vnodes))
        span_add("steps.virtual", len(vnodes))
        return value, rows
