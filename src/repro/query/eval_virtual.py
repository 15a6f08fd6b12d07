"""Axis evaluation over a virtual hierarchy: the paper's contribution
applied to queries — and, since PBN is vPBN under the identity vDataGuide,
the navigator of stored documents too.

Steps over a ``virtualDoc(...)`` source navigate the *virtual* hierarchy
using vPBN machinery over the untouched original numbering; a stored
document navigates as its store's identity view (``DocumentStore.view``,
``root { ** }``), whose answers the evaluator hands back as the stored
nodes they are:

* ``child``/``attribute`` steps read the run under the ``lcaLength``
  prefix shared with the virtual parent (Section 5.2's instance relation)
  by the parent's row off a per-view run table, or by a prefix scan;
* ``descendant`` steps expand child ranges level by level through the
  vDataGuide (each hop one range scan), touching only data below the
  context node — one prefix run per type below a context whose subtree
  mirrors the original;
* ``parent``/``ancestor`` steps cut each context key where every cut is
  complete (:meth:`~repro.vdataguide.ast.VType.complete_cut`) and run the
  inverse range scans elsewhere;
* sibling axes filter candidate instances with the Section 5 predicates
  (``vPreceding-sibling``, ``vFollowing-sibling``), each test one vPBN
  comparison, counted in ``stats.comparisons``;
* ``following`` / ``preceding`` are order itself: after a node's subtree,
  or before it and not its ancestor, under the order key — a whole
  column at a time is one bisect.

Results come back in *virtual* document order: the position of each
node's *first copy* in the preorder of the materialized view (a view can
place one original node at several positions; the answer holds it once,
where it first occurs).  Level arrays are a per-type property, so how a
step's result orders is decided per step on the vDataGuide
(:meth:`VirtualNavigator.order_class`): one result type orders by key,
and so do several types of an *intact* tree (one that mirrors its
original subtree — every tree of an identity view); types of different
trees concatenate, and several types of any other tree merge by that
tree's first-copy order key (:meth:`VirtualNavigator._order_keys`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import attrgetter, lt
from typing import Optional

from repro.core import vpbn
from repro.core.values import mirrored_subtrees
from repro.core.virtual_document import VirtualDocument, VNode
from repro.obs.trace import span_add
from repro.pbn.columnar import subtree_bound
from repro.query import joins
from repro.query.joins import NO_BOUNDS, NO_KERNEL, type_matches
from repro.query.ast import NodeTest
from repro.query.items import VirtualDocItem
from repro.storage.stats import StorageStats
from repro.vdataguide.ast import VType


#: Order classes of a step (:meth:`VirtualNavigator.order_class`) — how
#: the per-type runs of its result combine into virtual document order.
KEY, FOREST, KEYED = "key", "forest", "keyed"


#: Sort key for same-vtype candidate lists and the runs of an intact tree
#: (plain document order).
_components_of = attrgetter("node.pbn.components")
_pbn_components = attrgetter("pbn.components")


def _cas_columns_of(vdoc: VirtualDocument):
    """``vtype -> CasColumns`` of the view's virtual values (the sums of
    :func:`repro.query.joins.fold_runs`)."""
    from repro.storage.cas_index import virtual_cas_columns

    return lambda vtype: virtual_cas_columns(vdoc, vtype)


class VirtualNavigator:
    """Axis steps over virtual nodes and virtual document handles — a
    store's own identity view's included.

    :param metrics: optional service metrics block; every :meth:`step`
        counts one ``navigator.virtual.steps`` (``navigator.indexed.steps``
        over a store's own view).
    """

    def __init__(self, stats: Optional[StorageStats] = None, metrics=None) -> None:
        self.stats = stats if stats is not None else StorageStats()
        self.metrics = metrics

    # -- virtual order, decided per step ------------------------------------------

    def order_class(
        self, vdoc: VirtualDocument, ctx_vtypes, axis: str, test: NodeTest
    ) -> str:
        """How the result of a step orders, read off the vDataGuide before
        a row is touched: the virtual types the step can produce follow
        from the context types (none: the document), the axis and the
        test, and level arrays are a per-type property (paper Section 5).

        * :data:`KEY` — one result type: within a type, first-copy order
          *is* component order (:meth:`_order_keys`), on any view,
          recursive ones included.  Likewise several types of an
          *intact* tree (:meth:`_intact`): it mirrors its original
          subtree, so virtual order is document order.
        * :data:`FOREST` — result types in pairwise different trees of the
          vDataGuide.  Forest order comes first, so the per-type runs
          concatenate.
        * :data:`KEYED` — several types of one other tree: their runs
          merge by the tree's order key (:meth:`_order_keys`).
        * :data:`NO_KERNEL` — no batch kernel covers the axis.

        Memoized with the view.
        """
        memo_key = (tuple(sorted(map(id, ctx_vtypes))), axis, test)
        found = vdoc._order_memo.get(memo_key)
        if found is None:
            found = self._classify(vdoc, ctx_vtypes, axis, test)
            vdoc._order_memo[memo_key] = found
        return found

    def _classify(self, vdoc, ctx_vtypes, axis, test) -> str:
        result = self._result_vtypes(vdoc, ctx_vtypes, axis, test)
        if result is None:
            return NO_KERNEL
        if len(result) < 2:
            return KEY
        per_tree: dict[int, int] = {}
        for vtype in result:
            tree = vtype.pbn.components[0]
            per_tree[tree] = per_tree.get(tree, 0) + 1
        crowded = [tree for tree, count in per_tree.items() if count > 1]
        if not crowded:
            return FOREST
        intact = self._intact(vdoc)[1]
        return KEY if all(tree in intact for tree in crowded) else KEYED

    def _intact(self, vdoc: VirtualDocument):
        """``(vtypes, trees)``: the ids of the virtual types whose subtree
        mirrors its original one (:func:`repro.core.values.
        mirrored_subtrees`) and the indexes of the vDataGuide trees whose
        root is one of them — the *intact* trees, where virtual order is
        component order (an identity view has nothing else).  Memoized
        with the view."""
        found = vdoc._order_memo.get("intact")
        if found is None:
            vtypes = mirrored_subtrees(vdoc.vguide)
            roots = [root for root in vdoc.vguide.roots if id(root) in vtypes]
            trees = frozenset(root.pbn.components[0] for root in roots)
            found = vdoc._order_memo["intact"] = (vtypes, trees)
        return found

    def _result_vtypes(self, vdoc, ctx_vtypes, axis, test) -> Optional[list[VType]]:
        """The virtual types ``axis::test`` can produce from contexts of
        ``ctx_vtypes`` (empty: from the virtual document node), or
        ``None`` for an axis without a batch kernel — ``parent`` needs
        every context type's cut complete, ``ancestor`` every cut of its
        chain below the root (:meth:`~repro.vdataguide.ast.VType.
        complete_cut`)."""
        guide = vdoc.vguide
        if axis == "parent" and ctx_vtypes:
            if not all(vtype.complete_cut() for vtype in ctx_vtypes):
                return None
            pool = {
                id(vtype.parent): vtype.parent
                for vtype in ctx_vtypes
                if vtype.parent is not None
            }.values()
        elif axis in ("ancestor", "ancestor-or-self") and ctx_vtypes:
            if not all(vtype.complete_chain() for vtype in ctx_vtypes):
                return None
            pool = {
                id(t): t
                for vtype in ctx_vtypes
                for t in (vtype.chain() if axis == "ancestor-or-self" else vtype.chain()[:-1])
            }.values()
        elif axis in ("child", "attribute"):
            pool = (
                [child for vtype in ctx_vtypes for child in vtype.children]
                if ctx_vtypes
                else guide.roots
            )
        elif axis in ("descendant", "descendant-or-self"):
            if ctx_vtypes:
                # Context types can nest: a type is reported once.
                below = {
                    id(vtype): vtype
                    for top in ctx_vtypes
                    for vtype in top.iter_subtree()
                    if vtype is not top or axis == "descendant-or-self"
                }
                pool = below.values()
            else:
                pool = guide.iter_vtypes()
        elif axis in ("following", "preceding") and ctx_vtypes:
            pool = guide.iter_vtypes()
        elif axis in ("following-sibling", "preceding-sibling") and ctx_vtypes:
            families = {
                id(vtype.parent): (
                    guide.roots if vtype.parent is None else vtype.parent.children
                )
                for vtype in ctx_vtypes
                if not vtype.is_attribute
            }
            pool = [sibling for family in families.values() for sibling in family]
            axis = "sibling"
        else:
            return None
        return [vtype for vtype in pool if type_matches(vtype, test, axis)]

    def _order_keys(self, vdoc: VirtualDocument):
        """``(order_key, parent_key)``: a plain sort key of the view's
        reachable nodes whose order is the preorder of the materialized
        view, each node at its *first copy* — and, for an instance of a
        type numbered under ``prefix`` (its first ``lca_length``
        components), ``parent_key(vtype, prefix)``, the key of its
        first-copy virtual parent.

        The key is one token per virtual level, headed by the tree index:
        (attributes-first rank, the level's instance's *full* key,
        vDataGuide type order) — :meth:`VirtualDocument.children`'s
        sibling order, so tuple-prefix order puts ancestors before their
        descendants and lexicographic comparison is the materialized
        preorder.  A node's key is its first-copy parent's key plus its
        own token.  Under a *complete* cut the one parent is numbered by
        the prefix itself.  Under an incomplete one (``title { author }``:
        an author pins its title only up to the shared book) every
        reachable parent instance under the prefix holds a copy, and the
        first copy sits under the first of them: within one type,
        first-copy order is component order (induction from the roots:
        parents under disjoint prefixes keep their prefixes' order), so
        that is one bisect in the parent type's column.  Parents' keys are
        memoized per type and prefix: a key costs one level, not a climb.

        Built on first use, memoized *with the view* (views are cached
        and outlive any one evaluator) under its reentrant memo lock like
        the other lazy indexes.
        """
        found = vdoc._order_memo.get("keys")
        if found is None:
            with vdoc._memo_lock:
                found = vdoc._order_memo.get("keys")
                if found is None:
                    found = vdoc._order_memo["keys"] = self._build_order_keys(vdoc)
        return found

    def _build_order_keys(self, vdoc: VirtualDocument):
        plans: dict[int, tuple] = {}
        for vtype in vdoc.vguide.iter_vtypes():
            parent = vtype.parent
            plans[id(vtype)] = (
                parent,
                vtype.lca_length,
                {},  # per-prefix memo of the first-copy parent's key
                parent is not None and vtype.complete_cut(),
                0 if vtype.is_attribute else 1,
                vtype.pbn.components,
            )

        def first_copy(parent: VType, prefix: tuple) -> tuple:
            """The components of ``parent``'s first reachable instance
            under ``prefix`` (every instance below a complete chain is
            reachable)."""
            if parent.complete_chain():
                column = vdoc.column(parent.original)
            else:
                column = vdoc.reachable_column(parent)[0]
            return column.keys[column.lower(prefix)]

        def key_of(vtype: VType, comps: tuple) -> tuple:
            # Climb to the first head already known — the tree index at a
            # root, or a memoized first-copy parent's key — collecting one
            # token per level, then build the key top-down in one tuple
            # and fill the memo entries the climb passed (each is a prefix
            # of the key), so the next key below them stops there.  A
            # loop, not a recursion: views are as deep as their documents.
            tokens: list = []
            fills: list = []  # (tokens below the entry, memo, prefix)
            while True:
                parent, lca, memo, complete, rank, type_order = plans[id(vtype)]
                tokens.append((rank, comps, type_order))
                if parent is None:
                    head = (type_order[0],)  # the tree index
                    break
                prefix = comps[:lca]
                head = memo.get(prefix)
                if head is not None:
                    break
                fills.append((len(tokens), memo, prefix))
                # a complete cut: the prefix numbers the parent itself
                comps = prefix if complete else first_copy(parent, prefix)
                vtype = parent
            tokens.reverse()
            key = head + tuple(tokens)
            for below, memo, prefix in fills:
                memo[prefix] = key[: len(key) - below]
            return key

        def parent_key(vtype: VType, prefix: tuple) -> tuple:
            parent, _, memo, complete, _, _ = plans[id(vtype)]
            head = memo.get(prefix)
            if head is None:
                comps = prefix if complete else first_copy(parent, prefix)
                head = memo[prefix] = key_of(parent, comps)
            return head

        return (lambda vnode: key_of(vnode.vtype, vnode.node.pbn.components)), parent_key

    # -- step dispatch -----------------------------------------------------------

    def step(self, item, axis: str, test: NodeTest, keep=None) -> list:
        """Items on ``axis`` of ``item`` satisfying ``test``, in axis order
        (virtual document order; reversed for reverse axes).  ``keep`` (a
        :class:`~repro.storage.cas_index.KeyFilter`, document items only)
        drops candidates by key before their nodes are resolved."""
        if isinstance(item, VirtualDocItem):
            self._count_steps(item.vdoc, 1)
            return self._document_step(item.vdoc, axis, test, keep)
        assert isinstance(item, VNode)
        vdoc: VirtualDocument = item._vdoc  # attached by the evaluator
        self._count_steps(vdoc, 1)
        if axis == "parent" and item.vtype.parent is None:
            # The parent of a virtual root is the virtual document node,
            # mirroring the document node a materialized tree would have.
            return [VirtualDocItem(vdoc)] if test.kind == "node" else []
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return handler(vdoc, item, test)

    def _count_steps(self, vdoc: VirtualDocument, contexts: int) -> None:
        """``navigator.indexed.steps`` / ``steps.indexed`` for a store's own
        view, ``navigator.virtual.steps`` / ``steps.virtual`` otherwise."""
        kind = "indexed" if vdoc.is_store_view else "virtual"
        if self.metrics is not None:
            self.metrics.incr(f"navigator.{kind}.steps", contexts)
        span_add(f"steps.{kind}", contexts)

    def _document_step(
        self, vdoc: VirtualDocument, axis: str, test: NodeTest, keep=None
    ) -> list:
        """A step from the document handle: whole columns, one per result
        type.  A store's own view answers in stored terms — the stored
        nodes, and the document node for the handle — since the evaluator
        would only unwrap each virtual node of a whole column again."""
        stored = vdoc.is_store_view
        document = vdoc.document if stored else VirtualDocItem(vdoc)
        if axis in ("self", "ancestor-or-self"):
            return [document] if test.kind == "node" else []
        if axis not in ("child", "descendant", "descendant-or-self"):
            return []
        # One run per type — a range scan of its whole column: distinct,
        # already in key order.
        vtypes = self._result_vtypes(vdoc, (), axis, test)
        self.stats.index_range_scans += len(vtypes)
        runs = [
            (vtype, vdoc.reachable_nodes(vtype) if keep is None else self._kept(vdoc, vtype, keep))
            for vtype in vtypes
        ]
        if stored:
            # An identity view's trees are intact, its roots physical:
            # document order is key order.
            found = [node for _, nodes in runs for node in nodes]
            if len(runs) > 1:
                found.sort(key=_pbn_components)
        else:
            found = self._merge_runs(
                vdoc, [[VNode(vtype, node, vdoc) for node in nodes] for vtype, nodes in runs]
            )
        if axis == "descendant-or-self" and test.kind == "node":
            return [document, *found]
        return found

    def _kept(self, vdoc: VirtualDocument, vtype: VType, keep) -> list:
        """The nodes of the reachable instances of ``vtype`` whose keys
        pass ``keep``, in document order.  Every instance of a type with a
        complete chain is reachable (a root's included), so its posting
        list is filtered as it stands and only the survivors' nodes are
        resolved."""
        accepts = keep.accepts(vtype)
        if vtype.complete_chain():
            keys = [key for key in vdoc.postings(vtype.original) if accepts(key)]
            return vdoc.nodes_of(vtype.original, keys)
        entry = vdoc.reachable_column(vtype)
        if entry is None:
            return []
        column, nodes = entry
        return [node for key, node in zip(column.keys[:], nodes) if accepts(key)]

    def _sort(self, vdoc: VirtualDocument, vnodes: list[VNode]) -> list[VNode]:
        """Virtual document order with duplicate elimination."""
        unique = {(id(v.vtype), id(v.node)): v for v in vnodes}
        if len(unique) < 2:
            return list(unique.values())
        runs: dict[int, list[VNode]] = {}
        for vnode in unique.values():
            runs.setdefault(id(vnode.vtype), []).append(vnode)
        for run in runs.values():
            run.sort(key=_components_of)
        return self._merge_runs(vdoc, list(runs.values()))

    def _merge_runs(self, vdoc: VirtualDocument, runs: list) -> list[VNode]:
        """Virtual document order from one run per virtual type, each
        distinct and in key order — which within a type *is* virtual
        order (no ``VPbn``).  Runs of different vDataGuide trees
        concatenate in forest order; runs of an intact tree merge by key,
        runs of another tree by its order key (:meth:`_order_keys`)."""
        runs = [run for run in runs if run]
        if len(runs) < 2:
            return runs[0] if runs else []
        by_tree: dict[int, list] = {}
        for run in runs:
            by_tree.setdefault(run[0].vtype.pbn.components[0], []).append(run)
        out: list[VNode] = []
        for tree in sorted(by_tree):
            tree_runs = by_tree[tree]
            if len(tree_runs) == 1:
                out.extend(tree_runs[0])
                continue
            merged = [vnode for run in tree_runs for vnode in run]
            if tree in self._intact(vdoc)[1]:
                merged.sort(key=_components_of)
            else:
                merged.sort(key=self._order_keys(vdoc)[0])
            out.extend(merged)
        return out

    # -- axes ------------------------------------------------------------------------

    def _axis_self(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        if type_matches(vnode.vtype, test, "self"):
            return [vnode]
        return []

    def _child_like(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest, axis: str):
        # Axis order is this copy's sibling order, the order its
        # positional predicates count in — VirtualDocument.children
        # (attributes first, then original document order, then
        # specification order) with the test applied.  Under a later copy
        # a child can stand earlier in virtual order, at its first copy:
        # the evaluator's step_result sorts a one-context answer.
        found: list = []
        for position, child_vtype in enumerate(vnode.vtype.children):
            if not type_matches(child_vtype, test, axis):
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
                    if type_matches(child.vtype, test, "descendant"):
                        found.append(child)
            frontier = next_frontier
        return self._sort(vdoc, found)

    def _axis_descendant_or_self(self, vdoc, vnode, test):
        found = self._axis_descendant(vdoc, vnode, test)
        if type_matches(vnode.vtype, test, "descendant-or-self"):
            return self._sort(vdoc, [vnode, *found])
        return found

    def _axis_parent(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        if vnode.vtype.parent is None:
            return []
        if not type_matches(vnode.vtype.parent, test, "parent"):
            return []
        # A duplicated node has one parent per copy; like every reverse
        # axis the navigator reports them context-node-outward (reverse
        # document order).
        return list(reversed(self._sort(vdoc, vdoc.parents(vnode))))

    def _axis_ancestor(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        found: list[VNode] = []
        frontier = vdoc.parents(vnode)
        while frontier:
            found.extend(
                v for v in frontier if type_matches(v.vtype, test, "ancestor")
            )
            next_frontier: list[VNode] = []
            for current in frontier:
                next_frontier.extend(vdoc.parents(current))
            frontier = next_frontier
        # Reverse axis order: nearest ancestors first, the document node
        # last — the handle a root's parent step reaches.
        found = list(reversed(self._sort(vdoc, found)))
        if test.kind == "node":
            found.append(VirtualDocItem(vdoc))
        return found

    def _axis_ancestor_or_self(self, vdoc, vnode, test):
        head = (
            [vnode]
            if type_matches(vnode.vtype, test, "ancestor-or-self")
            else []
        )
        return head + self._axis_ancestor(vdoc, vnode, test)

    def _sibling_candidates(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest):
        parent_vtype = vnode.vtype.parent
        if parent_vtype is None:
            vtypes = [
                v for v in vdoc.vguide.roots if type_matches(v, test, "sibling")
            ]
            return [vnode for v in vtypes for vnode in vdoc.instances(v)]
        found: list[VNode] = []
        for parent in vdoc.parents(vnode):
            for sibling_vtype in parent_vtype.children:
                if not type_matches(sibling_vtype, test, "sibling"):
                    continue
                prefix = parent.node.pbn.components[: sibling_vtype.lca_length]
                found.extend(
                    VNode(sibling_vtype, node, vdoc)
                    for node in vdoc._range(sibling_vtype.original, prefix)
                )
        return found

    def _axis_following_sibling(self, vdoc, vnode, test):
        candidates = self._sibling_candidates(vdoc, vnode, test)
        return self._passing(vdoc, candidates, vpbn.v_following_sibling, vnode)

    def _axis_preceding_sibling(self, vdoc, vnode, test):
        candidates = self._sibling_candidates(vdoc, vnode, test)
        return self._passing(vdoc, candidates, vpbn.v_preceding_sibling, vnode)[::-1]

    def _ordering(self, vdoc: VirtualDocument, vnode: VNode, test: NodeTest, axis: str):
        """``following`` / ``preceding`` of ``vnode`` by the order key —
        after its subtree, or before it and not its ancestor — one
        comparison per candidate, in virtual document order."""
        order_key = self._order_keys(vdoc)[0]
        reference = order_key(vnode)
        size = len(reference)
        found = []
        for vtype in vdoc.vguide.iter_vtypes():
            if not type_matches(vtype, test, axis):
                continue
            for candidate in vdoc.reachable_instances(vtype):
                self.stats.comparisons += 1
                key = order_key(candidate)
                if axis == "following":
                    if key[:size] > reference:
                        found.append(candidate)
                elif key < reference and reference[: len(key)] != key:
                    found.append(candidate)
        return self._sort(vdoc, found)

    def _axis_following(self, vdoc, vnode, test):
        return self._ordering(vdoc, vnode, test, "following")

    def _axis_preceding(self, vdoc, vnode, test):
        return self._ordering(vdoc, vnode, test, "preceding")[::-1]

    def _passing(self, vdoc, candidates, predicate, vnode: VNode) -> list[VNode]:
        """The candidates ``predicate`` relates to ``vnode`` — one Section 5
        vPBN comparison each — in virtual document order."""
        reference = vnode.vpbn
        found = []
        for candidate in candidates:
            self.stats.comparisons += 1
            if predicate(candidate.vpbn, reference):
                found.append(candidate)
        return self._sort(vdoc, found)

    # -- batch (columnar) kernels --------------------------------------------------

    def step_many(self, vnodes: list, axis: str, test: NodeTest, keep=None):
        """Evaluate a predicate-free step over a whole context set of
        :class:`VNode` items (same virtual document) in one pass with the
        columnar merge-join kernels.

        Returns the step's *final* result — deduplicated, in virtual
        document order, exactly what the evaluator's per-item loop plus
        ``document_order`` would produce — or, as a ``str``, why the step
        is handed back to that loop: :data:`NO_KERNEL`.

        ``keep`` (a :class:`~repro.storage.cas_index.KeyFilter`; child,
        attribute and descendant axes only) is the step's value
        predicates as a key test: rows it rejects are dropped before a
        node is resolved or a :class:`VNode` built for them.
        """
        handler = self._BATCH_AXES.get(axis)
        if handler is None or (keep is not None and axis not in joins.KEYS_FIRST_AXES):
            return NO_KERNEL
        vdoc: VirtualDocument = vnodes[0]._vdoc
        groups = self._grouped(vnodes)
        if self.order_class(vdoc, [group[0] for group in groups], axis, test) == NO_KERNEL:
            return NO_KERNEL
        if keep is None:
            out = handler(self, vdoc, groups, test, axis)
        else:
            out = handler(self, vdoc, groups, test, axis, keep)
        self._count_steps(vdoc, len(vnodes))
        return out

    def _run_rows(self, vdoc, vtype: VType, column, bounds, keep):
        """``(keys, nodes)`` of the rows in ``bounds`` — with a key filter
        the keys are tested first and only survivors resolve a node."""
        keys = column.key_runs(bounds)  # one bulk decode
        if keep is None:
            nodes = vdoc.row_nodes(vtype.original, column, bounds, keys)
            return keys, [nodes[row] for low, high in bounds for row in range(low, high)]
        accepts = keep.accepts(vtype)
        keys = [key for key in keys if accepts(key)]
        return keys, vdoc.nodes_of(vtype.original, keys)

    def _grouped(self, vnodes: list) -> list[tuple[VType, list[tuple], list]]:
        """Context nodes grouped by virtual type: ``(vtype, keys, vnodes)``
        with keys and vnodes row-aligned."""
        vtype = vnodes[0].vtype
        if all(vnode.vtype is vtype for vnode in vnodes):  # the common case
            return [(vtype, list(map(_components_of, vnodes)), vnodes)]
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

    def _child_runs(self, vdoc, group, test, axis):
        """``(child vtype, column, runs)`` per matching child type of one
        context group: ``runs[i]`` is the run of the type's rows under the
        ``lcaLength`` prefix (paper Section 5.2) of the group's context
        ``i`` — read off the view's parent->child run table
        (:meth:`VirtualDocument.child_runs`) by the context's row where
        the contexts know their rows (:meth:`_context_rows`), else probed
        per distinct prefix.  Contexts sharing a prefix share its run;
        distinct prefixes' runs are disjoint, and a child type has one
        parent type.  The one child/attribute kernel: :meth:`step_many`
        and :meth:`aggregate_many` take each run once, :meth:`step_groups`
        and :meth:`aggregate_groups` per context."""
        vtype, ctx_keys, ctx_vnodes = group
        children = [child for child in vtype.children if type_matches(child, test, axis)]
        rows = self._context_rows(vdoc, vtype, ctx_keys, ctx_vnodes, children) if children else None
        for child_vtype in children:
            if rows is None:
                lca = child_vtype.lca_length
                prefixes = sorted({key[:lca] for key in ctx_keys})
                found = self._runs(vdoc, child_vtype, prefixes)
                if found is None:
                    continue
                run_of = dict(zip(prefixes, found[1]))
                yield child_vtype, found[0], [run_of[key[:lca]] for key in ctx_keys]
                continue
            self.stats.index_range_scans += 1  # one read of the table
            table = vdoc.child_runs(child_vtype)
            if table is not None:
                runs = table if isinstance(rows, range) else list(map(table.__getitem__, rows))
                yield child_vtype, vdoc.column(child_vtype.original), runs

    @staticmethod
    def _context_rows(vdoc, vtype: VType, keys: list, vnodes: list, children: list):
        """Each context's row in its type's column, where the step reads its
        runs off the run tables: ``0..n-1`` for the whole type in key order
        (which builds a missing table: one sweep, like the probe it saves),
        else the rows carried over from the step that made the contexts,
        once the tables exist.  ``None`` for any other context set (a part
        of a type, read first after an update): it probes, building nothing."""
        total = len(vdoc.column(vtype.original))
        if len(keys) == total and all(map(lt, keys, islice(keys, 1, None))):
            return range(total)
        rows = [vnode._row for vnode in vnodes]
        tables = vdoc._child_run_tables
        if None in rows or not all(id(child) in tables for child in children):
            return None
        return rows

    def _runs(self, vdoc, vtype: VType, prefixes: list):
        """``(column, bounds)``: the run of rows under each of the sorted,
        distinct ``prefixes`` in the column of ``vtype``'s original type
        (one range scan apiece) — or ``None`` for a type without
        instances (one scan)."""
        column = vdoc.column(vtype.original)
        if column is None:
            self.stats.index_range_scans += 1
            return None
        bounds, scans = column.prefix_runs(prefixes)
        self.stats.index_range_scans += scans
        return column, bounds

    def _batch_child_like(self, vdoc, groups, test, axis, keep=None):
        runs = []
        for group in groups:
            for child_vtype, column, ctx_runs in self._child_runs(vdoc, group, test, axis):
                bounds = sorted({run for run in ctx_runs if run[0] < run[1]})
                if keep is not None:
                    _, nodes = self._run_rows(vdoc, child_vtype, column, bounds, keep)
                    runs.append([VNode(child_vtype, node, vdoc) for node in nodes])
                    continue
                nodes = vdoc.row_nodes(child_vtype.original, column, bounds)
                runs.append([
                    VNode(child_vtype, nodes[row], vdoc, row)
                    for low, high in bounds
                    for row in range(low, high)
                ])
        return self._merge_runs(vdoc, runs)

    def _batch_descendant(self, vdoc, groups, test, axis, keep=None):
        or_self = axis == "descendant-or-self"
        intact = self._intact(vdoc)[0]
        if all(id(group[0]) in intact for group in groups):
            return self._descendant_runs(vdoc, groups, test, or_self, keep)
        return self._descendant_by_key(vdoc, groups, test, or_self, keep)

    def _descendant_runs(self, vdoc, groups, test, or_self, keep):
        """Descendants of contexts whose subtrees mirror their originals:
        the descendants of one type below a context are the prefix run of
        its key in the type's column — one moving-cursor pass per type
        for every context of a group, no level-by-level expansion.
        Nested contexts reach a row twice, so rows are kept per type by
        key."""
        by_type: dict[int, tuple[VType, dict[tuple, VNode]]] = {}
        for vtype, ctx_keys, ctx_vnodes in groups:
            if or_self and type_matches(vtype, test, "descendant-or-self"):
                accepts = keep.accepts(vtype) if keep is not None else None
                by_key = by_type.setdefault(id(vtype), (vtype, {}))[1]
                for key, vnode in zip(ctx_keys, ctx_vnodes):
                    if accepts is None or accepts(key):
                        by_key[key] = vnode
            prefixes = sorted(set(ctx_keys))
            for desc_vtype in vtype.iter_subtree():
                if desc_vtype is vtype or not type_matches(desc_vtype, test, "descendant"):
                    continue
                found = self._runs(vdoc, desc_vtype, prefixes)
                if found is None:
                    continue
                keys, nodes = self._run_rows(vdoc, desc_vtype, *found, keep)
                by_key = by_type.setdefault(id(desc_vtype), (desc_vtype, {}))[1]
                for key, node in zip(keys, nodes):
                    if key not in by_key:
                        by_key[key] = VNode(desc_vtype, node, vdoc)
        return self._merge_runs(
            vdoc, [[by_key[key] for key in sorted(by_key)] for _, by_key in by_type.values()]
        )

    def _descendant_by_key(self, vdoc, groups, test, or_self, keep):
        """Descendant expansion level by level with *incremental* order
        keys (:meth:`_order_keys`): a candidate's key is its first-copy
        parent's key plus its own token.  Under a complete cut that parent
        is the frontier row the candidate's prefix numbers, so each child
        costs one tuple concatenation; under an incomplete one the
        parent's key is the memoized ``parent_key`` of the prefix.  Rows
        reached through nested contexts get the same key once, and the
        final order is one plain sort of precomputed tuples — no k-way
        merge, no comparator."""
        order_key, parent_key = self._order_keys(vdoc)
        out: dict[tuple, VNode] = {}
        frontier: dict[int, tuple[VType, dict[tuple, tuple]]] = {}
        for vtype, keys, ctx_vnodes in groups:
            keymap: dict[tuple, tuple] = {}
            for key, vnode in zip(keys, ctx_vnodes):
                if key not in keymap:
                    keymap[key] = order_key(vnode)
            frontier[id(vtype)] = (vtype, keymap)
            if or_self and type_matches(vtype, test, "descendant-or-self"):
                accepts = keep.accepts(vtype) if keep is not None else None
                for key, vnode in zip(keys, ctx_vnodes):
                    if accepts is None or accepts(key):
                        out[keymap[key]] = vnode
        while frontier:
            next_frontier: dict[int, tuple[VType, dict[tuple, tuple]]] = {}
            for vtype, keymap in frontier.values():
                for child_vtype in vtype.children:
                    if child_vtype.is_attribute:
                        continue
                    lca = child_vtype.lca_length
                    if child_vtype.complete_cut():
                        heads = keymap  # the prefix is the parent's own key
                    else:
                        heads = {
                            prefix: parent_key(child_vtype, prefix)
                            for prefix in {key[:lca] for key in keymap}
                        }
                    sorted_prefixes = sorted(heads)
                    found = self._runs(vdoc, child_vtype, sorted_prefixes)
                    if found is None:
                        continue
                    column, bounds = found
                    collect = type_matches(child_vtype, test, "descendant")
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
                    run_keys = column.key_runs(bounds)  # one bulk decode
                    pos = 0
                    for prefix, (low, high) in zip(sorted_prefixes, bounds):
                        parent_okey = heads[prefix]
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
            frontier = next_frontier
        return [out[okey] for okey in sorted(out)]

    def _batch_parent(self, vdoc, groups, test, axis):
        """Complete cuts: each context's one virtual parent is its key cut
        to ``lca_length``.  A physical root's parent is the document node,
        first in order."""
        document = False
        cuts: dict[int, tuple[VType, set]] = {}
        for vtype, ctx_keys, _ in groups:
            parent = vtype.parent
            if parent is None:
                document = document or test.kind == "node"
            elif type_matches(parent, test, axis):
                lca = vtype.lca_length
                cuts.setdefault(id(parent), (parent, set()))[1].update(
                    key[:lca] for key in ctx_keys
                )
        found = self._truncated(vdoc, cuts)
        return [VirtualDocItem(vdoc), *found] if document else found

    def _batch_ancestor(self, vdoc, groups, test, axis):
        """Complete chains: a context's ancestor at each level is its key
        cut to that ancestor type's original length.  Each context walks
        up its chain and stops at the first cut already collected (every
        cut above it was collected with it), so a context set down a deep
        chain costs its answer plus a step per context.  The document node
        comes first, as a root's parent."""
        cuts: dict[int, tuple[VType, set]] = {}
        for vtype, ctx_keys, _ in groups:
            start = vtype if axis == "ancestor-or-self" else vtype.parent
            for key in ctx_keys:
                ancestor = start
                while ancestor is not None:
                    seen = cuts.setdefault(id(ancestor), (ancestor, set()))[1]
                    cut = key[: ancestor.original.length]
                    if cut in seen:
                        break
                    seen.add(cut)
                    ancestor = ancestor.parent
        found = self._truncated(vdoc, {
            tid: entry for tid, entry in cuts.items() if type_matches(entry[0], test, axis)
        })
        if test.kind == "node":
            return [VirtualDocItem(vdoc), *found]
        return found

    def _truncated(self, vdoc, cuts: dict) -> list[VNode]:
        """The instances the truncated keys of ``cuts`` (``id(vtype) ->
        (vtype, keys)``, one truncation per context and level, so each
        instance once) name, in virtual document order — kept if reachable
        (always, below a complete chain)."""
        runs = []
        for vtype, keys in cuts.values():
            nodes = vdoc.nodes_of(vtype.original, sorted(keys))
            if not vtype.complete_chain():
                reachable = vdoc._reachable_ids(vtype)
                nodes = [node for node in nodes if id(node) in reachable]
            runs.append([VNode(vtype, node, vdoc) for node in nodes])
        return self._merge_runs(vdoc, runs)

    def _batch_ordering(self, vdoc, groups, test, axis):
        """``following`` / ``preceding`` of a context set, a column at a
        time: an intact tree's column by component bisects
        (:meth:`_ordering_rows`), any other by one bisect on the order key
        against a single pivot context (:meth:`_keyed_rows`)."""
        preceding = axis == "preceding"
        intact = self._intact(vdoc)[1]
        pivot = None
        found: list[VNode] = []
        for cand_vtype in vdoc.vguide.iter_vtypes():
            if not type_matches(cand_vtype, test, axis):
                continue
            entry = vdoc.reachable_column(cand_vtype)
            if entry is None:
                continue
            column, nodes = entry
            cand_root = cand_vtype.pbn.components[0]
            if cand_root in intact:
                rows = self._ordering_rows(column, groups, cand_root, preceding)
            else:
                if pivot is None:
                    pivot = self._ordering_pivot(vdoc, groups, preceding)
                rows = self._keyed_rows(vdoc, cand_vtype, nodes, pivot, preceding)
            found.extend(VNode(cand_vtype, nodes[row], vdoc) for row in rows)
        return self._sort(vdoc, found)

    def _ordering_pivot(self, vdoc, groups, preceding: bool) -> tuple:
        """The order key of the one context that decides the union of the
        contexts' ``preceding`` / ``following``.  ``preceding``: the last
        context (an earlier one adds nothing; no ancestor of the last
        precedes another context).  ``following``: the first context whose
        subtree ends first — from the first context, down through the
        contexts nested in it (a later context outside it ends later)."""
        order_key = self._order_keys(vdoc)[0]
        keys = sorted(order_key(vnode) for _, _, vnodes in groups for vnode in vnodes)
        if preceding:
            return keys[-1]
        pivot = keys[0]
        for key in keys[1:]:
            if key[: len(pivot)] != pivot:
                break
            pivot = key
        return pivot

    def _keyed_rows(self, vdoc, vtype: VType, nodes: list, pivot: tuple, preceding: bool):
        """Rows of ``vtype``'s reachable column on the ``preceding`` /
        ``following`` axis of the context keyed ``pivot``.  Keys rise
        along a column, so ``following`` is the suffix whose keys, cut to
        the pivot's length, pass it (after its subtree); ``preceding`` is
        the prefix below it less the one row that can be its ancestor (a
        prefix of its key) — one bisect."""
        self.stats.index_range_scans += 1
        self.stats.comparisons += 1  # one bisect decides the whole column
        order_key = self._order_keys(vdoc)[0]

        def key(row: int) -> tuple:
            return order_key(VNode(vtype, nodes[row], vdoc))

        rows = range(len(nodes))
        if not preceding:
            size = len(pivot)
            return rows[bisect_right(rows, pivot, key=lambda row: key(row)[:size]):]
        upto = bisect_left(rows, pivot, key=key)
        if upto:
            below = key(upto - 1)
            if pivot[: len(below)] == below:
                upto -= 1  # an ancestor of the pivot (a type has one)
        return rows[:upto]

    def _ordering_rows(self, column, groups, tree: int, preceding: bool):
        """Rows of an intact tree's column on the ``preceding`` /
        ``following`` axis of the context groups.  Key order is virtual
        order there, so the union over the contexts of that tree is one
        bisect (:func:`joins.preceding_bounds` — at most one ancestor row
        excluded — or :func:`joins.following_start`); a context of another
        tree takes the whole column or none of it (forest order)."""
        self.stats.index_range_scans += 1
        self.stats.comparisons += 1  # one bisect decides the whole column
        total = len(column)
        keys: list[tuple] = []
        for vtype, ctx_keys, _ in groups:
            ctx_tree = vtype.pbn.components[0]
            if ctx_tree == tree:
                keys.extend(ctx_keys)
            elif (tree < ctx_tree) == preceding:
                return range(total)
        if not keys:
            return ()
        if preceding:
            upto, exclude = joins.preceding_bounds(column, keys)
            return [row for row in range(upto) if row != exclude]
        return range(joins.following_start(column, keys), total)

    def _batch_siblings(self, vdoc, groups, test, axis):
        preceding = axis == "preceding-sibling"
        stats = self.stats
        intact = self._intact(vdoc)[1]
        found: list[VNode] = []
        for vnode in (vnode for group in groups for vnode in group[2]):
            if vnode.vtype.is_attribute:
                continue  # attributes have no siblings (XPath convention)
            ref_key = vnode.node.pbn.components
            parent_vtype = vnode.vtype.parent
            if parent_vtype is None:
                # Virtual roots of the whole forest are siblings under the
                # document node; distinct root types order by forest order.
                ref_root = vnode.vtype.pbn.components[0]
                for cand_vtype in vdoc.vguide.roots:
                    if cand_vtype.is_attribute or not type_matches(
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
            predicate = (
                vpbn.v_preceding_sibling if preceding else vpbn.v_following_sibling
            )
            by_key = vnode.vtype.pbn.components[0] in intact
            if by_key:
                # An intact tree: key order is sibling order, the one
                # parent is the key cut to lca_length, and every sibling
                # type's run splits at the context key.
                parent_keys = [ref_key[: vnode.vtype.lca_length]]
            else:
                parent_keys = [parent.node.pbn.components for parent in vdoc.parents(vnode)]
            for parent_key in parent_keys:
                for sibling_vtype in parent_vtype.children:
                    if not type_matches(sibling_vtype, test, "sibling"):
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
                    if by_key or sibling_vtype is vnode.vtype:
                        # Same type (or an intact tree): the sibling run is
                        # the cut-prefix run, split at the context key —
                        # three bisects total.
                        cut = vnode.vtype.cuts()[parent_vtype.level - 1]
                        run_lo, run_hi = column.prefix_bounds(ref_key[:cut], low, high)
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
                            if predicate(candidate.vpbn, vnode.vpbn):
                                found.append(candidate)
        return self._sort(vdoc, found)

    _BATCH_AXES = {
        "child": _batch_child_like,
        "attribute": _batch_child_like,
        "descendant": _batch_descendant,
        "descendant-or-self": _batch_descendant,
        "parent": _batch_parent,
        "ancestor": _batch_ancestor,
        "ancestor-or-self": _batch_ancestor,
        "following": _batch_ordering,
        "preceding": _batch_ordering,
        "following-sibling": _batch_siblings,
        "preceding-sibling": _batch_siblings,
    }

    # -- aggregation (bounds) kernels ------------------------------------------------

    def aggregate_many(self, items: list, axis: str, test: NodeTest, kind: str):
        """``count``/``sum`` of a predicate-free step as run bounds over the
        result types' shared posting lists — no :class:`VNode` is built,
        and a sum folds each run through the type's *virtual-value* CAS
        prefix sums.  The runs cover the step's result exactly once and a
        count or an exact sum orders nothing:

        * ``child`` / ``attribute`` — the ``lcaLength`` prefix runs of
          :meth:`_child_runs` (paper Section 5.2), on any view;
        * ``descendant`` from contexts whose subtrees mirror their
          originals — staircased prefix runs per type;
        * ``child`` / ``descendant`` from a lone document handle — whole
          columns, where every root is physical and every result type's
          chain complete (each instance in the view: a store's own view).

        Returns ``(value, rows)`` or, as a ``str``, why it declines:
        :data:`NO_KERNEL` (other axes), :data:`NO_BOUNDS` (a document
        step without whole-column bounds) or :data:`INEXACT_SUM` (values
        a prefix sum cannot add exactly).
        """
        first = items[0]
        if isinstance(first, VirtualDocItem):
            vdoc = first.vdoc
            runs = self._document_runs(vdoc, axis, test)
        else:
            vdoc = first._vdoc
            runs = self._aggregate_runs(vdoc, self._grouped(items), axis, test)
        if isinstance(runs, str):
            return runs
        folded = joins.fold_runs(runs, kind, _cas_columns_of(vdoc))
        if not isinstance(folded, str):
            self._count_steps(vdoc, len(items))
        return folded

    def _document_runs(self, vdoc: VirtualDocument, axis: str, test: NodeTest):
        """``(vtype, 0, rows)`` per result type of a lone document's
        ``child`` / ``descendant`` step (see :meth:`aggregate_many`)."""
        if not all(root.complete_cut() for root in vdoc.vguide.roots):
            return NO_BOUNDS
        if axis not in ("child", "descendant"):
            return NO_KERNEL
        runs = []
        for vtype in self._result_vtypes(vdoc, (), axis, test):
            if not vtype.complete_chain():
                return NO_BOUNDS
            self.stats.index_range_scans += 1
            column = vdoc.column(vtype.original)
            if column is not None:
                runs.append((vtype, 0, len(column)))
        return runs

    def _aggregate_runs(self, vdoc: VirtualDocument, groups, axis: str, test: NodeTest):
        """``(vtype, low, high)`` runs of a context set's step (see
        :meth:`aggregate_many`).  Descendant runs never overlap: per type,
        the context keys of every group whose subtree reaches it are
        pooled and staircased, so the surviving tops' subtrees are
        disjoint even where contexts nest across groups."""
        if axis in ("child", "attribute"):
            return [
                (child_vtype, *run)
                for group in groups
                for child_vtype, _, runs in self._child_runs(vdoc, group, test, axis)
                for run in sorted(set(runs))
            ]
        intact = self._intact(vdoc)[0]
        if axis != "descendant" or not all(id(group[0]) in intact for group in groups):
            return NO_KERNEL
        pooled: dict[int, tuple[VType, set]] = {}
        for vtype, ctx_keys, _ in groups:
            for desc_vtype in vtype.iter_subtree():
                if desc_vtype is not vtype and type_matches(desc_vtype, test, axis):
                    pooled.setdefault(id(desc_vtype), (desc_vtype, set()))[1].update(ctx_keys)
        runs = []
        for desc_vtype, keys in pooled.values():
            found = self._runs(vdoc, desc_vtype, joins.staircase(sorted(keys)))
            if found is not None:
                runs.extend((desc_vtype, low, high) for low, high in found[1])
        return runs

    # -- grouped kernels: one context set, rows kept apart per segment -------------

    def _runs_per_segment(self, vdoc, flat: list, segments: list, test, axis):
        """``(runs, shares)``: per segment the non-empty ``(child vtype,
        low, high)`` runs of :meth:`_child_runs` over the contexts ``flat``
        of all segments at once — each run once, child types in
        specification order, a type's runs in context order — and the
        ``(child vtype, column, runs)`` of every matching child type."""
        groups = self._grouped(flat)
        seg_of = [index for index, segment in enumerate(segments) for _ in segment]
        at = {id(groups[0][0]): seg_of}
        if len(groups) > 1:
            at = {}
            for vnode, index in zip(flat, seg_of):
                at.setdefault(id(vnode.vtype), []).append(index)
        out: list = [[] for _ in segments]
        shares = []
        for group in groups:
            for share in self._child_runs(vdoc, group, test, axis):
                child_vtype = share[0]
                for index, (low, high) in zip(at[id(group[0])], share[2]):
                    if low < high:
                        out[index].append((child_vtype, low, high))
                shares.append(share)
        for index, segment in enumerate(segments):
            if len(segment) > 1:  # contexts sharing a prefix share its run
                out[index] = list(dict.fromkeys(out[index]))
        return out, shares

    def step_groups(self, segments: list, axis: str, test: NodeTest) -> list:
        """A predicate-free ``child`` / ``attribute`` step for several
        context lists at once — each FLWR binding's, from the evaluator's
        grouped paths: the runs of :meth:`step_many` over all contexts,
        each segment's result assembled from its own contexts' runs and
        merged by :meth:`_merge_runs` (deduplicated, virtual document
        order — what the step returns for that segment alone)."""
        flat = [vnode for segment in segments for vnode in segment]
        if not flat:
            return [[] for _ in segments]
        vdoc: VirtualDocument = flat[0]._vdoc
        runs_of, shares = self._runs_per_segment(vdoc, flat, segments, test, axis)
        nodes_of = {
            child_vtype: vdoc.row_nodes(child_vtype.original, column, sorted(set(runs)))
            for child_vtype, column, runs in shares
        }
        out = []
        for runs in runs_of:
            if len(runs) == 1:  # one run of one type: in key order already
                child_vtype, low, high = runs[0]
                nodes = nodes_of[child_vtype]
                out.append([VNode(child_vtype, nodes[row], vdoc, row) for row in range(low, high)])
                continue
            by_type: dict = {}
            for child_vtype, low, high in runs:
                nodes = nodes_of[child_vtype]
                by_type.setdefault(child_vtype, []).extend(
                    [VNode(child_vtype, nodes[row], vdoc, row) for row in range(low, high)]
                )
            out.append(self._merge_runs(vdoc, list(by_type.values())))
        self._count_steps(vdoc, len(flat))
        return out

    def aggregate_groups(self, segments: list, axis: str, test: NodeTest, kind: str):
        """``(value, rows)`` of :meth:`aggregate_many` per segment, from the
        runs of :meth:`step_groups` — or, as a ``str``, why the runs
        cannot be summed exactly."""
        flat = [vnode for segment in segments for vnode in segment]
        if not flat:
            return [(0, 0) for _ in segments]
        vdoc: VirtualDocument = flat[0]._vdoc
        columns_of = _cas_columns_of(vdoc)
        out = []
        for runs in self._runs_per_segment(vdoc, flat, segments, test, axis)[0]:
            folded = joins.fold_runs(runs, kind, columns_of)
            if isinstance(folded, str):
                return folded
            out.append(folded)
        self._count_steps(vdoc, len(flat))
        return out
