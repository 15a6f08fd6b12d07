"""PBN-indexed axis evaluation over stored documents.

This navigator evaluates axis steps the way a PBN-based XML DBMS does
(paper Section 4.2): the DataGuide narrows a node test to candidate types,
the type index supplies each type's numbers in document order, and PBN
comparisons (prefix tests, ordinal tests) decide the structural
relationship — the tree is never walked.

Every PBN axis comparison increments ``stats.comparisons`` and every
posting-list scan increments ``stats.index_range_scans``, so experiments
can compare this strategy against the virtual one on equal terms.
"""

from __future__ import annotations

from repro.dataguide.guide import GuideType
from repro.obs.trace import span_add
from repro.pbn import axes
from repro.pbn.columnar import subtree_bound
from repro.query import joins
from repro.query.ast import NodeTest
from repro.query.eval_tree import matches_test
from repro.storage.store import DocumentStore
from repro.xmlmodel.nodes import Document, Node


class IndexedNavigator:
    """Axis steps over one :class:`DocumentStore`.

    :param metrics: optional service metrics block; every :meth:`step`
        counts one ``navigator.indexed.steps``.
    """

    def __init__(self, store: DocumentStore, metrics=None) -> None:
        self.store = store
        self.metrics = metrics

    # -- candidate types ------------------------------------------------------------

    def _matching_types(self, candidates, test: NodeTest, axis: str):
        return [t for t in candidates if joins.type_matches(t, test, axis)]

    # -- step dispatch ------------------------------------------------------------

    def step(self, node: Node, axis: str, test: NodeTest, keep=None) -> list[Node]:
        """Nodes on ``axis`` of ``node`` satisfying ``test``, in axis order.
        ``keep`` (a :class:`~repro.storage.cas_index.KeyFilter`, document
        contexts only) drops candidates by key before their nodes are
        resolved."""
        if self.metrics is not None:
            self.metrics.incr("navigator.indexed.steps")
        span_add("steps.indexed")
        if isinstance(node, Document):
            return self._document_step(axis, test, keep)
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return handler(node, test)

    def _document_step(self, axis: str, test: NodeTest, keep=None) -> list[Node]:
        guide = self.store.guide
        if axis == "child":
            types = self._matching_types(guide.roots, test, axis)
            return self._collect_postings(types, (), keep)
        if axis in ("descendant", "descendant-or-self"):
            types = self._matching_types(guide.iter_types(), test, axis)
            found = self._collect_postings(types, (), keep)
            if axis == "descendant-or-self" and test.kind == "node":
                return [self.store.document, *found]
            return found
        if axis == "self":
            return [self.store.document] if test.kind == "node" else []
        return []

    def _collect_postings(
        self, types: list[GuideType], prefix: tuple[int, ...], keep=None
    ) -> list[Node]:
        """Merge the prefix ranges of several types into document order
        (rows ``keep`` rejects never reach the merge)."""
        store = self.store
        keys: list[tuple[int, ...]] = []
        for guide_type in types:
            run = store.type_index.raw_prefix_range(store.type_id(guide_type), prefix)
            keys.extend(run if keep is None else filter(keep.accepts(guide_type), run))
        keys.sort()
        return [store.node_by_components(key) for key in keys]

    # -- axes ------------------------------------------------------------------------

    def _axis_self(self, node: Node, test: NodeTest) -> list[Node]:
        return [node] if matches_test(node.kind, node.name, test, "self") else []

    def _axis_child(self, node: Node, test: NodeTest) -> list[Node]:
        guide_type = self.store.type_of(node)
        types = self._matching_types(guide_type.children, test, "child")
        return self._collect_postings(types, node.pbn.components)

    def _axis_attribute(self, node: Node, test: NodeTest) -> list[Node]:
        guide_type = self.store.type_of(node)
        types = self._matching_types(guide_type.children, test, "attribute")
        return self._collect_postings(types, node.pbn.components)

    def _axis_descendant(self, node: Node, test: NodeTest) -> list[Node]:
        guide_type = self.store.type_of(node)
        descendant_types = [
            t for t in guide_type.iter_subtree() if t is not guide_type
        ]
        types = self._matching_types(descendant_types, test, "descendant")
        return self._collect_postings(types, node.pbn.components)

    def _axis_descendant_or_self(self, node: Node, test: NodeTest) -> list[Node]:
        found = self._axis_descendant(node, test)
        if matches_test(node.kind, node.name, test, "descendant-or-self"):
            return [node, *found]
        return found

    def _axis_parent(self, node: Node, test: NodeTest) -> list[Node]:
        if len(node.pbn) == 1:
            document = self.store.document
            return [document] if test.kind == "node" else []
        parent = self.store.node(node.pbn.parent())
        if matches_test(parent.kind, parent.name, test, "parent"):
            return [parent]
        return []

    def _axis_ancestor(self, node: Node, test: NodeTest) -> list[Node]:
        # Reverse axis order: nearest ancestor first.
        found: list[Node] = []
        for length in range(len(node.pbn) - 1, 0, -1):
            ancestor = self.store.node(node.pbn.prefix(length))
            if matches_test(ancestor.kind, ancestor.name, test, "ancestor"):
                found.append(ancestor)
        if test.kind == "node":
            found.append(self.store.document)
        return found

    def _axis_ancestor_or_self(self, node: Node, test: NodeTest) -> list[Node]:
        head = [node] if matches_test(node.kind, node.name, test, "ancestor-or-self") else []
        return head + self._axis_ancestor(node, test)

    def _sibling_candidates(self, node: Node, test: NodeTest) -> list[Node]:
        if len(node.pbn) == 1:
            parent_types = self.store.guide.roots
            prefix: tuple[int, ...] = ()
        else:
            parent_type = self.store.type_of(node).parent
            assert parent_type is not None
            parent_types = parent_type.children
            prefix = node.pbn.components[:-1]
        types = self._matching_types(parent_types, test, "sibling")
        return self._collect_postings(types, prefix)

    def _axis_following_sibling(self, node: Node, test: NodeTest) -> list[Node]:
        stats = self.store.stats
        found = []
        for candidate in self._sibling_candidates(node, test):
            stats.comparisons += 1
            if axes.is_following_sibling(candidate.pbn, node.pbn):
                found.append(candidate)
        return found

    def _axis_preceding_sibling(self, node: Node, test: NodeTest) -> list[Node]:
        stats = self.store.stats
        found = []
        for candidate in self._sibling_candidates(node, test):
            stats.comparisons += 1
            if axes.is_preceding_sibling(candidate.pbn, node.pbn):
                found.append(candidate)
        found.reverse()  # reverse axis order
        return found

    def _all_candidates(self, test: NodeTest, axis: str) -> list[Node]:
        types = self._matching_types(self.store.guide.iter_types(), test, axis)
        return self._collect_postings(types, ())

    def _axis_following(self, node: Node, test: NodeTest) -> list[Node]:
        stats = self.store.stats
        found = []
        for candidate in self._all_candidates(test, "following"):
            stats.comparisons += 1
            if axes.is_following(candidate.pbn, node.pbn):
                found.append(candidate)
        return found

    def _axis_preceding(self, node: Node, test: NodeTest) -> list[Node]:
        stats = self.store.stats
        found = []
        for candidate in self._all_candidates(test, "preceding"):
            stats.comparisons += 1
            if axes.is_preceding(candidate.pbn, node.pbn):
                found.append(candidate)
        found.reverse()  # reverse axis order
        return found

    # -- batch (columnar) kernels --------------------------------------------------

    def step_many(self, nodes: list[Node], axis: str, test: NodeTest, keep=None):
        """Evaluate a predicate-free step over a whole context set (all
        element/attribute/text nodes of this store) in one pass with the
        columnar merge-join kernels over the type index.

        Returns the step's *final* result — deduplicated, document order —
        or the ``str`` :data:`~repro.query.joins.NO_KERNEL` when no kernel
        covers the axis (the evaluator falls back to the per-item path).

        ``keep`` (a :class:`~repro.storage.cas_index.KeyFilter`; child,
        attribute and descendant axes only) is the step's value
        predicates as a key test: rows it rejects are dropped before a
        node is resolved for them."""
        handler = self._BATCH_AXES.get(axis)
        if handler is None or (keep is not None and axis not in joins.KEYS_FIRST_AXES):
            return joins.NO_KERNEL
        if keep is None:
            out = handler(self, nodes, test, axis)
        else:
            out = handler(self, nodes, test, axis, keep)
        self._count_steps(len(nodes))
        return out

    def _count_steps(self, contexts: int) -> None:
        if self.metrics is not None:
            self.metrics.incr("navigator.indexed.steps", contexts)
        span_add("steps.indexed", contexts)

    def _column_of(self, guide_type: GuideType):
        return self.store.type_index.column(self.store.type_id(guide_type))

    def _by_guide_type(self, nodes: list[Node]):
        """Context nodes grouped as ``(guide_type, sorted keys)``."""
        groups: dict[int, tuple[GuideType, list[tuple]]] = {}
        for node in nodes:
            guide_type = self.store.type_of(node)
            entry = groups.get(id(guide_type))
            if entry is None:
                groups[id(guide_type)] = (guide_type, [node.pbn.components])
            else:
                entry[1].append(node.pbn.components)
        return [(guide_type, sorted(keys)) for guide_type, keys in groups.values()]

    def _scan_runs(
        self, guide_type: GuideType, prefixes: list[tuple], keep=None
    ) -> list[tuple]:
        """Keys of ``guide_type`` under any of the (sorted, equal-width,
        distinct) prefixes that pass ``keep`` — one moving-cursor pass
        over the type's column."""
        stats = self.store.stats
        column = self._column_of(guide_type)
        if column is None:
            stats.index_range_scans += 1
            span_add("index.range_scans")
            return []
        bounds, scans = joins.prefix_run_bounds(column, prefixes)
        stats.index_range_scans += scans
        span_add("index.range_scans", scans)
        # Bulk-decode all runs in one pass: encoded columns amortize the
        # bucket walk across the batch instead of paying it per tiny slice.
        keys = column.key_runs(bounds)
        if keep is None:
            return keys
        return list(filter(keep.accepts(guide_type), keys))

    def _child_runs(self, groups, test: NodeTest, axis: str):
        """``(child_type, column, prefixes, bounds)`` per matching child
        type of the context groups (``(guide_type, sorted distinct
        keys)``): ``bounds[i]`` is the run of children under
        ``prefixes[i]``, one context's key — one moving-cursor pass over
        the child type's column.  The one child/attribute kernel:
        :meth:`step_many` and :meth:`aggregate_many` flatten its runs,
        :meth:`step_groups` and :meth:`aggregate_groups` keep them apart
        per context."""
        stats = self.store.stats
        for guide_type, ctx_keys in groups:
            for child_type in self._matching_types(guide_type.children, test, axis):
                column = self._column_of(child_type)
                if column is None:
                    stats.index_range_scans += 1
                    span_add("index.range_scans")
                    continue
                bounds, scans = joins.prefix_run_bounds(column, ctx_keys)
                stats.index_range_scans += scans
                span_add("index.range_scans", scans)
                yield child_type, column, ctx_keys, bounds

    def _batch_child_like(self, nodes, test, axis, keep=None):
        keys: list[tuple] = []
        for child_type, column, _, bounds in self._child_runs(
            self._by_guide_type(nodes), test, axis
        ):
            run = column.key_runs(bounds)  # one bulk decode
            keys.extend(run if keep is None else filter(keep.accepts(child_type), run))
        keys.sort()  # child ranges of distinct parents are disjoint: no dedup
        return [self.store.node_by_components(key) for key in keys]

    def _batch_descendant(self, nodes, test, axis, keep=None):
        # Context subtrees can nest across groups, so collect into a set.
        keys: set[tuple] = set()
        for guide_type, ctx_keys in self._by_guide_type(nodes):
            descendant_types = [
                t for t in guide_type.iter_subtree() if t is not guide_type
            ]
            for desc_type in self._matching_types(descendant_types, test, "descendant"):
                keys.update(self._scan_runs(desc_type, ctx_keys, keep))
        if axis == "descendant-or-self":
            keys.update(
                node.pbn.components
                for node in nodes
                if matches_test(node.kind, node.name, test, axis)
                and (
                    keep is None
                    or keep.accepts(self.store.type_of(node))(node.pbn.components)
                )
            )
        return [self.store.node_by_components(key) for key in sorted(keys)]

    def _batch_parent(self, nodes, test, axis):
        include_document = False
        prefixes: set[tuple] = set()
        for node in nodes:
            if len(node.pbn) == 1:
                include_document = include_document or test.kind == "node"
            else:
                prefixes.add(node.pbn.components[:-1])
        found: list[Node] = []
        for prefix in sorted(prefixes):
            parent = self.store.node_by_components(prefix)
            if matches_test(parent.kind, parent.name, test, "parent"):
                found.append(parent)
        if include_document:
            return [self.store.document, *found]
        return found

    def _batch_ancestor(self, nodes, test, axis):
        or_self = axis == "ancestor-or-self"
        # key -> already accepted (as a matching self); proper-ancestor
        # prefixes still need the test applied.
        accept: dict[tuple, bool] = {}
        for node in nodes:
            components = node.pbn.components
            for length in range(1, len(components)):
                accept.setdefault(components[:length], False)
        if or_self:
            for node in nodes:
                if matches_test(node.kind, node.name, test, axis):
                    accept[node.pbn.components] = True
        found: list[Node] = []
        for key in sorted(accept):
            node = self.store.node_by_components(key)
            if accept[key] or matches_test(node.kind, node.name, test, "ancestor"):
                found.append(node)
        if test.kind == "node":
            return [self.store.document, *found]
        return found

    def _batch_ordering(self, nodes, test, axis):
        stats = self.store.stats
        preceding = axis == "preceding"
        ctx_keys = [node.pbn.components for node in nodes]
        keys: list[tuple] = []
        for guide_type in self._matching_types(
            self.store.guide.iter_types(), test, axis
        ):
            column = self._column_of(guide_type)
            if column is None:
                continue
            stats.index_range_scans += 1
            span_add("index.range_scans")
            stats.comparisons += 1  # one bisect decides the whole column
            column_keys = column.keys
            if preceding:
                upto, exclude = joins.preceding_bounds(column, ctx_keys)
                run = column_keys[:upto]
                if exclude >= 0:
                    del run[exclude]
                keys.extend(run)
            else:
                start = joins.following_start(column, ctx_keys)
                keys.extend(column_keys[start:])
        keys.sort()  # distinct types hold distinct keys: no dedup
        return [self.store.node_by_components(key) for key in keys]

    def _batch_siblings(self, nodes, test, axis):
        stats = self.store.stats
        preceding = axis == "preceding-sibling"
        keys: set[tuple] = set()  # contexts sharing a parent overlap
        for node in nodes:
            ref = node.pbn.components
            if len(ref) == 1:
                sibling_types = self.store.guide.roots
                prefix: tuple = ()
            else:
                parent_type = self.store.type_of(node).parent
                assert parent_type is not None
                sibling_types = parent_type.children
                prefix = ref[:-1]
            for sibling_type in self._matching_types(sibling_types, test, "sibling"):
                column = self._column_of(sibling_type)
                stats.index_range_scans += 1
                span_add("index.range_scans")
                if column is None:
                    continue
                low, high = joins.sibling_run(column, prefix)
                stats.comparisons += 1  # run split at the context key
                if preceding:
                    start, end = low, column.lower(ref, low, high)
                else:
                    start, end = column.lower(subtree_bound(ref), low, high), high
                column_keys = column.keys
                keys.update(column_keys[start:end])
        return [self.store.node_by_components(key) for key in sorted(keys)]

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

    def aggregate_many(self, nodes, axis: str, test: NodeTest, kind: str):
        """Reduce a predicate-free step over a whole context set to one
        number without materializing a single node: ``count`` adds up run
        lengths, ``sum`` folds each run through the type's CAS prefix
        sums (:meth:`~repro.storage.cas_index.CasColumns.sum_over`).

        Returns ``(value, rows)`` — ``rows`` is how many nodes the step
        would have produced — or, as a ``str``, why it declines: the axis
        has no bounds form (:data:`~repro.query.joins.NO_KERNEL`) or a
        run's values are not exactly summable
        (:data:`~repro.query.joins.INEXACT_SUM`); the evaluator then
        materializes, and scalar defines the semantics.
        """
        runs = self._aggregate_runs(nodes, axis, test)
        if runs is None:
            return joins.NO_KERNEL
        folded = joins.fold_runs(runs, kind, self._cas_columns)
        if not isinstance(folded, str):
            self._count_steps(len(nodes))
        return folded

    def _cas_columns(self, guide_type: GuideType):
        return self.store.cas_index.columns(self.store.type_id(guide_type))

    # -- grouped kernels: one context set, rows kept apart per segment -------------

    def _segment_runs(self, segments, test: NodeTest, axis: str, decode: bool):
        """``(context key -> [(child_type, low, high, keys)], several child
        types?)`` over every segment's contexts: :meth:`_child_runs` for
        all of them at once, keyed back to the context each run belongs
        to — with the run's keys when ``decode`` (one bulk decode per
        child type), else ``None``."""
        groups = [
            (guide_type, sorted(set(keys)))  # a node bound twice is one context
            for guide_type, keys in self._by_guide_type(
                [node for segment in segments for node in segment]
            )
        ]
        runs: dict[tuple, list] = {}
        child_types = 0
        for child_type, column, prefixes, bounds in self._child_runs(groups, test, axis):
            child_types += 1
            decoded = column.key_runs(bounds) if decode else None
            start = 0
            for prefix, (low, high) in zip(prefixes, bounds):
                if low < high:
                    end = start + high - low
                    keys = decoded[start:end] if decode else None
                    runs.setdefault(prefix, []).append((child_type, low, high, keys))
                    start = end
        return runs, child_types > 1

    def step_groups(self, segments: list, axis: str, test: NodeTest) -> list:
        """A predicate-free ``child`` / ``attribute`` step for several
        context lists at once — each FLWR binding's, from the evaluator's
        grouped paths: the runs of :meth:`step_many` over all contexts,
        each segment's result assembled from its own contexts' runs
        (deduplicated, document order — what :meth:`step_many` returns
        for that segment alone)."""
        runs, mixed = self._segment_runs(segments, test, axis, decode=True)
        node_of = self.store.node_by_components
        out = []
        for segment in segments:
            keys: list[tuple] = []
            for node in segment:
                for run in runs.get(node.pbn.components, ()):
                    keys.extend(run[3])
            if mixed:
                keys.sort()
            out.append([node_of(key) for key in keys])
        self._count_steps(sum(map(len, segments)))
        return out

    def aggregate_groups(self, segments: list, axis: str, test: NodeTest, kind: str):
        """``(value, rows)`` of :meth:`aggregate_many` per segment, from the
        runs of :meth:`step_groups` — or, as a ``str``, why the runs
        cannot be summed exactly."""
        runs, _ = self._segment_runs(segments, test, axis, decode=False)
        out = []
        for segment in segments:
            folded = joins.fold_runs(
                [
                    run[:3]
                    for node in segment
                    for run in runs.get(node.pbn.components, ())
                ],
                kind,
                self._cas_columns,
            )
            if isinstance(folded, str):
                return folded
            out.append(folded)
        self._count_steps(sum(map(len, segments)))
        return out

    def _aggregate_runs(self, nodes, axis: str, test: NodeTest):
        """``(guide_type, low, high)`` runs jointly covering the step's
        result exactly once, or ``None`` for axes without a bounds form.

        Runs never overlap: child ranges of distinct parents are
        disjoint, staircased subtree tops are disjoint, and a context key
        never appears in a *descendant* type's column (descendant types
        sit strictly deeper, so their keys are strictly wider) — the same
        facts the batch kernels rely on, minus the dedup set they keep
        for materialized keys.
        """
        store = self.store
        stats = store.stats
        if len(nodes) == 1 and isinstance(nodes[0], Document):
            # The lone-document contexts `count(//x)` / `sum(/x)` produce:
            # every run is a whole column (mirrors _document_step).
            guide = store.guide
            if axis == "child":
                types = self._matching_types(guide.roots, test, axis)
            elif axis == "descendant":
                types = self._matching_types(guide.iter_types(), test, axis)
            else:
                return None
            runs: list[tuple[GuideType, int, int]] = []
            for guide_type in types:
                stats.index_range_scans += 1
                span_add("index.range_scans")
                column = self._column_of(guide_type)
                if column is not None:
                    runs.append((guide_type, 0, len(column.keys)))
            return runs
        if any(isinstance(node, Document) for node in nodes):
            return None
        if axis in ("child", "attribute"):
            return [
                (child_type, low, high)
                for child_type, _, _, bounds in self._child_runs(
                    self._by_guide_type(nodes), test, axis
                )
                for low, high in bounds
            ]
        if axis != "descendant":
            return None
        # Per descendant type, pool the context keys of every group whose
        # subtree reaches it, then staircase the pool: the surviving tops'
        # runs are disjoint even when context subtrees nest across groups.
        contrib: dict[int, tuple[GuideType, set]] = {}
        for guide_type, ctx_keys in self._by_guide_type(nodes):
            descendant_types = [
                t for t in guide_type.iter_subtree() if t is not guide_type
            ]
            for desc_type in self._matching_types(
                descendant_types, test, "descendant"
            ):
                entry = contrib.get(id(desc_type))
                if entry is None:
                    contrib[id(desc_type)] = (desc_type, set(ctx_keys))
                else:
                    entry[1].update(ctx_keys)
        runs = []
        for desc_type, pooled in contrib.values():
            tops = joins.staircase(sorted(pooled))
            runs.extend(self._run_bounds(desc_type, tops))
        return runs

    def _run_bounds(self, guide_type: GuideType, prefixes: list[tuple]):
        """``(guide_type, low, high)`` per prefix run — the bounds twin of
        :meth:`_scan_runs` (same stats accounting, no key decoded)."""
        stats = self.store.stats
        column = self._column_of(guide_type)
        if column is None:
            stats.index_range_scans += 1
            span_add("index.range_scans")
            return []
        bounds, scans = joins.prefix_run_bounds(column, prefixes)
        stats.index_range_scans += scans
        span_add("index.range_scans", scans)
        return [(guide_type, low, high) for low, high in bounds]
