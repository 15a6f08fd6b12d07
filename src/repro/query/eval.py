"""The expression evaluator.

One evaluator serves all three navigation strategies: axis steps dispatch on
the *item* — virtual nodes navigate through the vPBN machinery, and so do
stored tree nodes, lifted into their store's identity view (PBN is vPBN
under the identity vDataGuide) and lowered back to stored nodes where a
path ends; ``tree`` mode walks tree pointers instead, and constructed
nodes always do.  Everything above the axis level (FLWR, predicates, functions,
constructors, operators) is shared, so benchmark comparisons between
strategies measure exactly the navigation difference.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Optional

from repro.core.virtual_document import VNode
from repro.errors import QueryEvaluationError
from repro.obs.trace import current_span, span
from repro.query import ast
from repro.query.context import Context
from repro.query.eval_tree import TreeNavigator
from repro.query.eval_virtual import VirtualNavigator, _components_of
from repro.query.joins import KEYS_FIRST_AXES, compile_value_predicate
from repro.query.functions import REGISTRY
from repro.query.items import (
    NODE_ITEMS,
    Constructed,
    VirtualDocItem,
    atomize,
    effective_boolean,
    format_atomic,
    is_node,
    string_value,
    to_number,
)
from repro.xmlmodel.nodes import Document, Node

#: Operators whose left-deep chains fold in one loop
#: (:meth:`Evaluator._eval_chain`), by family: a chain runs down the left
#: operands while their operator is of the same family.
_CHAIN_FAMILY = {
    "or": "or",
    "and": "and",
    "+": "arithmetic",
    "-": "arithmetic",
    "*": "arithmetic",
    "div": "arithmetic",
    "mod": "arithmetic",
}


class Evaluator:
    """Evaluates parsed expressions against an engine.

    :param engine: document registry, stores, stats.
    :param mode: ``"indexed"`` (stored documents navigate their identity
        view over the PBN indexes), ``"tree"`` (pointer navigation
        everywhere), or ``"sql"`` (stored and virtual axes through a
        view's SQLite accel, :mod:`repro.query.sqlbackend`).  Virtual
        navigation is selected by the item kind, not the mode — though
        ``sql`` steps virtual items through the accel too.
    """

    #: The evaluation modes, in documentation order.
    MODES = ("indexed", "tree", "sql")

    #: Columnar batch kernels evaluate predicate-free steps over whole
    #: context sets (class-level switch so tests and benchmarks can force
    #: the scalar per-item path; results are identical either way).
    use_batch_kernels = True

    def __init__(self, engine, mode: str = "indexed", meter=None) -> None:
        if mode not in self.MODES:
            raise QueryEvaluationError(f"unknown evaluation mode {mode!r}")
        self.engine = engine
        self.mode = mode
        self._tree_nav = TreeNavigator()
        self._virtual_nav = VirtualNavigator(engine.stats, metrics=engine.metrics)
        #: Optional :class:`~repro.query.budget.CostMeter`; when set, the
        #: step seam charges context and result items against it and the
        #: query aborts with ``QueryBudgetExceeded`` past the limit.
        self.meter = meter
        #: The FLWR binding being evaluated: ``id(expr) -> value`` of the
        #: paths grouped over all bindings (:meth:`_each_binding`).
        self._slices: Optional[dict] = None
        #: ``id(body) -> groupable paths`` (:func:`_groupable_paths`).
        self._groupable: dict[int, list] = {}
        #: Constructed items settled into elements during evaluation.
        self.settled = 0
        #: parent node -> the stored document its children are in
        #: (:meth:`_container_of`).
        self._stored_containers: dict = {}

    # ------------------------------------------------------------------ dispatch

    def evaluate(self, expr: ast.Expr, context: Context) -> list:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise QueryEvaluationError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, context)

    # ------------------------------------------------------------------ primaries

    def _eval_literal(self, expr: ast.Literal, context: Context) -> list:
        return [expr.value]

    def _eval_var(self, expr: ast.VarRef, context: Context) -> list:
        return list(context.lookup(expr.name))

    def _eval_context_item(self, expr: ast.ContextItem, context: Context) -> list:
        return [context.require_item()]

    def _eval_sequence(self, expr: ast.SequenceExpr, context: Context) -> list:
        out: list = []
        for sub in expr.exprs:
            out.extend(self.evaluate(sub, context))
        return out

    def _eval_func(self, expr: ast.FuncCall, context: Context) -> list:
        if self._slices is not None and id(expr) in self._slices:
            return self._slices[id(expr)]
        entry = REGISTRY.get(expr.name)
        if entry is None:
            raise QueryEvaluationError(f"unknown function {expr.name}()")
        min_args, max_args, impl = entry
        if not min_args <= len(expr.args) <= max_args:
            raise QueryEvaluationError(
                f"{expr.name}() takes {min_args}..{max_args} arguments, "
                f"got {len(expr.args)}"
            )
        if expr.name in ("count", "sum") and len(expr.args) == 1:
            fast = self._eval_aggregate(expr.name, expr.args[0], context)
            if fast is not None:
                return fast
        evaluated = [self._evaluate_settled(arg, context) for arg in expr.args]
        return impl(context, *evaluated)

    def _eval_aggregate(
        self, name: str, arg: ast.Expr, context: Context
    ) -> Optional[list]:
        """``count()``/``sum()`` over a path argument without materializing
        the final step: every step but the last runs normally, the last
        goes through the aggregate kernel table, prefix sums first.

        Returns the function's result list, or ``None`` when the argument
        shape is not aggregable — decided *before* any evaluation, so the
        generic path never repeats work.  A decline past this point falls
        through to the step kernels inside the same step — one operator
        row either way, and no step is ever evaluated twice.
        """
        if not self.use_batch_kernels or not isinstance(arg, ast.PathExpr):
            return None
        steps = _fuse_descendant_steps(arg.steps)
        if not steps or steps[-1].predicates:
            return None
        return self._run_path(self._path_start(arg, context), steps, context, name)

    # ------------------------------------------------------------------ paths

    def _eval_root(self, expr: ast.RootExpr, context: Context) -> list:
        return [self._root_of(self._focus_node(context))]

    def _root_of(self, item: Any):
        if isinstance(item, VirtualDocItem):
            return item
        if isinstance(item, VNode):
            vdoc = item._vdoc
            if vdoc is None:
                raise QueryEvaluationError("virtual node without a document")
            return VirtualDocItem(vdoc)
        if isinstance(item, Node):
            return self.engine.root_of(item)
        raise QueryEvaluationError("'/' requires a node context item")

    def _eval_path(self, expr: ast.PathExpr, context: Context) -> list:
        if self._slices is not None and id(expr) in self._slices:
            return self._slices[id(expr)]
        steps = _fuse_descendant_steps(expr.steps)
        return self._run_path(self._path_start(expr, context), steps, context)

    def _path_start(self, expr: ast.PathExpr, context: Context) -> list:
        if expr.start is None:
            return [self._focus_node(context)]
        return self._evaluate_settled(expr.start, context)

    def _run_path(self, items, steps, context, aggregate=None, declined=None) -> list:
        """Apply ``steps`` in turn from ``items`` — with ``aggregate``, the
        last one reduced to that function's result (:meth:`_apply_step`).
        Stored nodes lifted into their store's view by the first step stay
        lifted from step to step and are lowered once, here."""
        last = len(steps) - 1
        for index, step in enumerate(steps):
            name = aggregate if index == last else None
            items = self._apply_step(items, step, context, name, declined)
        return _stored(items)

    #: Axes whose navigator output runs from the context node *outward*
    #: (reverse document order), per XPath.
    _REVERSE_AXES = frozenset(
        ["parent", "ancestor", "ancestor-or-self", "preceding", "preceding-sibling"]
    )

    def _apply_step(self, items, step, context, aggregate=None, declined=None) -> list:
        """One plan step over ``items`` through the kernel table — with
        ``aggregate`` (``"count"`` / ``"sum"``), that function of the
        step's nodes.  ``declined``: why the FLWR path the step belongs to
        runs per binding, the row's reason when the step has none."""
        return self._seam(
            step, len(items), lambda: self._route(items, step, context, aggregate, declined)
        )

    def _seam(self, step: ast.Step, items_in: int, route):
        """Apply one plan step: ``route()`` returns ``(result, rows,
        kernel, reason)`` — ``rows`` the items it produced per context list
        (one for a plain step, one per binding for a grouped FLWR path)."""
        # Cost-meter seam: every strategy (scalar, columnar, indexed,
        # sql) funnels through this method, so charging context items on
        # the way in and result items on the way out bounds the whole
        # traversal regardless of which kernel evaluated it.  The charge
        # raises QueryBudgetExceeded mid-plan — rejection, not timeout;
        # the single-step row guard applies to each context list alone.
        meter = self.meter
        if meter is not None:
            meter.charge_context(items_in)
        # Tracing wrapper: one "step" span per plan-step application, so
        # EXPLAIN ANALYZE can aggregate by operator.  The untraced path
        # pays a thread-local read and a branch.
        if current_span() is None:
            result, rows, kernel, reason = route()
        else:
            from repro.query.plan import step_label

            with span("step", step_label(step)) as step_span:
                result, rows, kernel, reason = route()
                step_span.add("items_in", items_in)
                step_span.add("items_out", sum(rows))
                step_span.set("kernel", kernel)
                if reason is not None:
                    step_span.set("reason", reason)
                if step.predicates:
                    step_span.add("predicates", len(step.predicates))
        metrics = self.engine.metrics
        if metrics is not None:
            labels = {"kernel": kernel}
            if reason is not None:
                labels["reason"] = reason
            metrics.incr("engine.kernel", items_in, labels=labels)
        if meter is not None:
            for count in rows:
                meter.charge_rows(count)
        return result

    def _route(self, items, step, context, aggregate=None, declined=None) -> tuple:
        """``(result, rows, kernel, reason)`` from the first entry of the
        kernel table that takes the step; a scalar row's reason is the
        decline of the entry tried just before the loop."""
        reason = declined
        for entry in self._AGGREGATE_KERNELS if aggregate else self._STEP_KERNELS:
            outcome = entry(self, items, step, context, aggregate)
            if isinstance(outcome, str):
                reason = outcome
                continue
            result, rows, kernel = outcome
            if aggregate and kernel != "prefix-sum":
                result = REGISTRY[aggregate][2](context, result)
            return result, rows, kernel, reason if kernel == "scalar" else declined
        raise AssertionError("the per-item loop never declines")

    def _context_set(self, items: list):
        """``(view, items)`` — the virtual document whose navigator kernels
        take ``items`` as one context set (a lone document or virtual
        document item included), and the items as that view's: stored
        nodes are lifted into their store's identity view
        (``DocumentStore.view``) — or why no view takes them."""
        if not self.use_batch_kernels:
            return "kernels-off"  # the reference arm
        if not items:
            return "empty-context"
        return self._view_of(items, self.mode == "indexed")

    def _view_of(self, items: list, lifts: bool = True):
        """``(view, items)`` of :meth:`_context_set` for a non-empty
        ``items`` — stored nodes lifted only where ``lifts`` (else
        ``"mode"``) — or why no one view takes them."""
        first = items[0]
        if isinstance(first, (VNode, VirtualDocItem)):
            vdoc = first.vdoc if isinstance(first, VirtualDocItem) else first._vdoc
            if vdoc is None or not (
                len(items) == 1
                or all(isinstance(item, VNode) and item._vdoc is vdoc for item in items)
            ):
                return "heterogeneous-context"
            return vdoc, items
        if not isinstance(first, Node) or (isinstance(first, Document) and len(items) > 1):
            return "heterogeneous-context"  # atomics, documents among nodes
        if not lifts:
            return "mode"
        store = self.engine.store_of(first)
        lifted = None if store is None else _lift(store.view, items)
        if lifted is None:
            return "heterogeneous-context"
        return store.view, lifted

    # The kernel table.  An entry is (evaluator, items, step, context,
    # aggregate) -> (result, rows, kernel) or, a str, why it declines.

    def _kernel_prefix_sum(self, items, step, context, aggregate):
        """``count()`` / ``sum()`` from run bounds, no node materialized
        (the level-array aggregation of paper Section 5).  Declines under
        sql (aggregating around the backend would dilute what
        ``strategy=sql`` measures) and where the navigator does (axis; a
        virtual root without whole-column bounds; an inexact sum)."""
        if self.mode == "sql":
            return "mode"
        if not items:
            return _aggregate_result(aggregate, 0, 0), (0,), "prefix-sum"
        owner = self._context_set(items)
        if isinstance(owner, str):
            return owner
        outcome = self._virtual_nav.aggregate_many(owner[1], step.axis, step.test, aggregate)
        if isinstance(outcome, str):
            return outcome
        return _aggregate_result(aggregate, *outcome), (outcome[1],), "prefix-sum"

    def _kernel_sql(self, items, step, context, aggregate):
        """Under sql, a predicate-free step over one view's context set
        (a stored document's: its identity view's) through the view's
        accel — one batched query where the accel has one for the axis,
        else its per-item steps.  Predicated steps run the per-item loop
        over the accel's axis steps (:meth:`_step`)."""
        if self.mode != "sql" or step.predicates or not items:
            return "mode"
        owner = self._view_of(items)
        if isinstance(owner, str):
            return owner
        view, items = owner
        accel = self.engine.sql_accel(view)
        out = accel.step_many(items, step.axis, step.test) if len(items) > 1 else None
        if out is None:
            out = []
            for item in items:
                stepped = accel.step(item, step.axis, step.test)
                if stepped is None:
                    return "mode"
                out.extend(stepped)
            out = self.step_result(len(items), step.axis, out)
        return out, (len(out),), "sql"

    def _kernel_navigator(self, items, step, context, aggregate):
        """The navigator's set-at-a-time kernels — a lone (virtual)
        document is one whole-column document step: ``columnar`` without
        predicates, ``cas`` when each compiles to a single value
        comparison (boolean and focus-free, so filtering commutes with
        the kernels' dedup and ordering and chaining is intersection):
        candidates are then dropped by key before a node exists for them.
        Declines with :meth:`_context_set`'s reasons, ``predicate-shape``,
        ``document-candidate`` (a document's string value lives outside
        any type's columns) and the navigator's own."""
        owner = self._context_set(items)
        if isinstance(owner, str):
            return owner
        view, items = owner
        navigator = self._virtual_nav
        first, axis, test = items[0], step.axis, step.test
        keep = None
        if step.predicates:
            from repro.storage.cas_index import virtual_key_filter

            preds = [compile_value_predicate(pred) for pred in step.predicates]
            if any(pred is None for pred in preds):
                return "predicate-shape"
            keep = virtual_key_filter(view, preds)
        if isinstance(first, VirtualDocItem):
            if keep is not None and axis not in ("child", "descendant") and (
                axis != "descendant-or-self" or test.kind == "node"
            ):
                return "document-candidate"
            out = navigator.step(first, axis, test, keep)
        elif keep is None or axis in KEYS_FIRST_AXES:
            out = navigator.step_many(items, axis, test, keep)
        else:
            out = navigator.step_many(items, axis, test)
            if isinstance(out, str):
                return out
            # parent/ancestor kernels put the document first for node() tests.
            if out and isinstance(out[0], VirtualDocItem):
                return "document-candidate"
            out = [v for v in out if keep.accepts(v.vtype)(v.node.pbn.components)]
        if isinstance(out, str):
            return out
        return out, (len(out),), "columnar" if keep is None else "cas"

    def _kernel_scalar(self, items, step, context, aggregate):
        """The per-item loop, the reference every kernel reproduces —
        over stored nodes as they are (predicates see what a query sees)."""
        out: list = []
        for item in _stored(items):
            if not is_node(item):
                raise QueryEvaluationError(
                    f"cannot apply a path step to the atomic value {item!r}"
                )
            # Predicates see candidates in *axis* order (reverse axes count
            # positions from the context node outward)...
            candidates = self._step(item, step.axis, step.test)
            for predicate in step.predicates:
                candidates = self._filter(candidates, predicate, context)
            out.extend(candidates)
        # ... but the step's result is always document order, deduplicated.
        out = self.step_result(len(items), step.axis, out)
        return out, (len(out),), "scalar"

    _STEP_KERNELS = (_kernel_sql, _kernel_navigator, _kernel_scalar)
    _AGGREGATE_KERNELS = (_kernel_prefix_sum, *_STEP_KERNELS)

    def step_result(self, contexts: int, axis: str, out: list) -> list:
        """A step's final form from the concatenated navigator output of
        ``contexts`` context items: one context's is duplicate-free in axis
        order, so document order is a reversal at most — or, for a
        virtual node's children (in the sibling order of that copy), a
        merge by the view's order key."""
        if contexts == 1:
            if axis in self._REVERSE_AXES:
                out.reverse()
            elif len(out) > 1 and type(out[0]) is VNode and axis in ("child", "attribute"):
                return self._virtual_key_order(out)
            return out
        return self.document_order(out)

    def _step(self, item: Any, axis: str, test: ast.NodeTest) -> list:
        if isinstance(item, VirtualDocItem):
            return self._view_step(item.vdoc, item, axis, test)
        if isinstance(item, VNode):
            return self._view_step(item._vdoc, item, axis, test)
        store = self.engine.store_of(item)
        if store is None or self.mode == "tree":
            return self._tree_nav.step(item, axis, test, store)
        view = store.view
        return _stored(self._view_step(view, _lift(view, [item])[0], axis, test))

    def _view_step(self, view, item, axis: str, test: ast.NodeTest) -> list:
        """One item's axis step in its view, through the view's accel
        under sql (the navigator answers what the accel cannot)."""
        if self.mode == "sql" and view is not None:
            stepped = self.engine.sql_accel(view).step(item, axis, test)
            if stepped is not None:
                return stepped
        return self._virtual_nav.step(item, axis, test)

    def _filter(self, items: list, predicate: ast.Expr, context: Context) -> list:
        size = len(items)
        kept: list = []
        for position, item in enumerate(items, start=1):
            focused = context.with_focus(item, position, size)
            value = self.evaluate(predicate, focused)
            if (
                len(value) == 1
                and isinstance(value[0], (int, float))
                and not isinstance(value[0], bool)
            ):
                if value[0] == position:
                    kept.append(item)
            elif effective_boolean(value):
                kept.append(item)
        return kept

    def _eval_filter_expr(self, expr: ast.FilterExpr, context: Context) -> list:
        items = self.evaluate(expr.base, context)
        for predicate in expr.predicates:
            items = self._filter(items, predicate, context)
        return items

    # ------------------------------------------------------------------ operators

    def _eval_unary(self, expr: ast.UnaryOp, context: Context) -> list:
        # A sign chain (``- - - 1``) folds in one loop, innermost sign first.
        signs = []
        while type(expr) is ast.UnaryOp:
            signs.append(expr.op)
            expr = expr.operand
        values = self.evaluate(expr, context)
        for op in reversed(signs):
            values = atomize(values)
            if not values:
                return []
            if len(values) > 1:
                raise QueryEvaluationError("unary arithmetic on a multi-item sequence")
            number = to_number(values[0])
            values = [-number if op == "-" else number]
        return values

    def _eval_binary(self, expr: ast.BinaryOp, context: Context) -> list:
        op = expr.op
        if type(expr.left) is ast.BinaryOp:
            family = _CHAIN_FAMILY.get(op)
            if family is not None and _CHAIN_FAMILY.get(expr.left.op) == family:
                return self._eval_chain(expr, family, context)
        if op == "or":
            return [
                effective_boolean(self.evaluate(expr.left, context))
                or effective_boolean(self.evaluate(expr.right, context))
            ]
        if op == "and":
            return [
                effective_boolean(self.evaluate(expr.left, context))
                and effective_boolean(self.evaluate(expr.right, context))
            ]
        if op in ("|", "except", "intersect"):
            return self._node_set_op(expr, context)
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return [_general_compare(op, left, right)]
        if op in ("+", "-", "*", "div", "mod"):
            return _arithmetic(op, left, right)
        if op == "to":
            return _range_sequence(left, right)
        raise QueryEvaluationError(f"unknown operator {op!r}")

    def _eval_chain(self, expr: ast.BinaryOp, family: str, context: Context) -> list:
        """A left-deep ``or``, ``and`` or arithmetic chain, folded in one
        loop instead of two stack frames per operand: operands evaluate
        left to right as the pairwise recursion would, and an ``or`` /
        ``and`` chain stops at the first operand that decides it."""
        spine = []
        while type(expr) is ast.BinaryOp and _CHAIN_FAMILY.get(expr.op) == family:
            spine.append(expr)
            expr = expr.left
        spine.reverse()
        if family == "arithmetic":
            value = self.evaluate(expr, context)
            for node in spine:
                value = _arithmetic(node.op, value, self.evaluate(node.right, context))
            return value
        decides = family == "or"
        if effective_boolean(self.evaluate(expr, context)) is decides:
            return [decides]
        for node in spine:
            if effective_boolean(self.evaluate(node.right, context)) is decides:
                return [decides]
        return [not decides]

    def _node_set_op(self, expr: ast.BinaryOp, context: Context) -> list:
        """``|`` / ``except`` / ``intersect``.  A left-deep ``|`` chain is
        one n-ary union: one :meth:`_ordered` over all its operands, fed
        in the pairwise operators' order of work — each operand evaluated
        settled and in order, checked for nodes once its right neighbour
        is in, its containers pinned before the next one is evaluated."""
        op = expr.op
        operands = [expr.right]
        left = expr.left
        while op == "|" and type(left) is ast.BinaryOp and left.op == "|":
            operands.append(left.right)
            left = left.left
        operands.append(left)
        operands.reverse()

        def groups():
            values: list = []
            for operand in operands:
                values.append(self._evaluate_settled(operand, context))
                if len(values) < 2:
                    continue
                fresh = values if len(values) == 2 else values[-1:]
                for value in fresh:
                    for item in value:
                        if not is_node(item):
                            raise QueryEvaluationError(
                                f"operator {op!r} requires node sequences"
                            )
                if op == "|":
                    yield [item for value in fresh for item in value]
            if op != "|":
                left_items, right_items = values
                right_keys = set(map(_identity, right_items))
                keep = op == "intersect"
                yield [item for item in left_items if (_identity(item) in right_keys) is keep]

        if current_span() is None:
            return self._ordered(groups())[0]
        with span("setop", op) as setop_span:
            ordered, items_in = self._ordered(groups())
            setop_span.set("op", op)
            setop_span.set("operands", len(operands))
            setop_span.add("items_in", items_in)
            setop_span.add("items_out", len(ordered))
        return ordered

    # ------------------------------------------------------------------ FLWR & friends

    def _eval_flwr(self, expr: ast.FLWRExpr, context: Context) -> list:
        bindings = [context]
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                expanded: list[Context] = []
                for current in bindings:
                    for position, item in enumerate(
                        self._evaluate_settled(clause.expr, current), start=1
                    ):
                        bound = current.bind(clause.var, [item])
                        if clause.position_var is not None:
                            bound = bound.bind(clause.position_var, [position])
                        expanded.append(bound)
                bindings = expanded
            else:
                bindings = [
                    current.bind(clause.var, self._evaluate_settled(clause.expr, current))
                    for current in bindings
                ]
        if expr.where is not None:
            kept: list[bool] = []
            self._each_binding(
                expr.where, bindings, lambda value: kept.append(effective_boolean(value))
            )
            bindings = [current for current, keep in zip(bindings, kept) if keep]
        if expr.order_by:
            bindings = self._order_bindings(bindings, expr.order_by)
        out: list = []
        self._each_binding(expr.return_expr, bindings, out.extend)
        return out

    # ------------------------------------------------------------------ set-at-a-time FLWR paths

    def _each_binding(self, body: ast.Expr, bindings: list[Context], consume) -> None:
        """Evaluate ``body`` once per binding, in order, handing each
        value to ``consume`` — the FLWR loop.  Every groupable path of
        ``body`` (:func:`_groupable_paths`) is evaluated first, once over
        the whole binding sequence (:meth:`_grouped_values`), and each
        iteration reads its own binding's slice of it."""
        slices = self._group_slices(body, bindings)
        saved = self._slices
        try:
            for index, current in enumerate(bindings):
                if slices is not None:
                    self._slices = slices[index]
                consume(self.evaluate(body, current))
        finally:
            self._slices = saved

    def _group_slices(self, body: ast.Expr, bindings: list[Context]):
        """Per binding, ``{id(path): value}`` for the groupable paths of
        ``body`` whose variable is bound to one node in every binding;
        ``None`` when nothing is grouped (the reference arm with batch
        kernels off always loops)."""
        if not self.use_batch_kernels or len(bindings) < 2:
            return None
        paths = self._groupable.get(id(body))
        if paths is None:
            paths = self._groupable[id(body)] = _groupable_paths(body, [])
        if not paths:
            return None
        slices: list[dict] = [{} for _ in bindings]
        # Per variable: the nodes it is bound to and their context set
        # (lifted once, however many of its paths are grouped), or None.
        contexts: dict = {}
        for expr, var in paths:
            if var not in contexts:
                contexts[var] = self._bound_context(var, bindings)
            bound = contexts[var]
            if bound is not None:
                for slot, value in zip(slices, self._grouped_values(expr, *bound, bindings)):
                    slot[id(expr)] = value
        return slices

    def _bound_context(self, var: str, bindings: list[Context]):
        """``(items, owner)`` — the node ``var`` is bound to in each
        binding, and :meth:`_context_set` of them (``"mode"`` under sql)
        — or ``None`` where some binding does not bind it to one node
        (the loop raises or atomizes: leave it the path)."""
        items = []
        for current in bindings:
            value = current.variables.get(var)
            if value is None or len(value) != 1 or not is_node(value[0]):
                return None
            items.append(value[0])
        return items, "mode" if self.mode == "sql" else self._context_set(items)

    def _grouped_values(
        self, expr: ast.Expr, items: list, owner, bindings: list[Context]
    ) -> list:
        """The value of a groupable path (or of ``count()`` / ``sum()`` of
        one) for each binding, ``items`` being the nodes its variable is
        bound to and ``owner`` their context set: each step runs once over
        all bindings' contexts, the navigators keeping every binding's
        rows apart (``step_groups`` / ``aggregate_groups``).  Declines
        exactly where the batch kernels do — sql, a stored strategy other
        than ``indexed``, bindings of several documents or kinds — and
        then every binding runs the path the way the loop would, its step
        rows tagged with the reason."""
        if isinstance(expr, ast.FuncCall):
            path, aggregate = expr.args[0], expr.name
        else:
            path, aggregate = expr, None
        steps = _fuse_descendant_steps(path.steps)
        if isinstance(owner, str):
            return [
                self._run_path([item], steps, current, aggregate, owner)
                for item, current in zip(items, bindings)
            ]
        view, lifted = owner
        segments: list = [[item] for item in lifted]
        for index, step in enumerate(steps):
            name = aggregate if index == len(steps) - 1 else None
            # The step seam of _apply_step for all bindings at once: one
            # span with the contexts of every binding as items_in, one
            # context charge, and each binding's own row charge.
            segments = self._seam(
                step,
                sum(map(len, segments)),
                lambda: self._grouped_step(view, segments, step, name, bindings),
            )
        if aggregate is None:
            segments = list(map(_stored, segments))
        return segments

    def _grouped_step(self, view, segments, step, name, bindings):
        """``(results, rows, kernel, reason)`` of one step of a grouped
        path over ``segments`` — each binding's context nodes in ``view``:
        each binding's result (with ``name``, its ``count()`` / ``sum()``)
        and row count."""
        navigator = self._virtual_nav
        axis, test = step.axis, step.test
        if name is None:
            out = navigator.step_groups(segments, axis, test)
            return out, [len(found) for found in out], "columnar", None
        outcome = navigator.aggregate_groups(segments, axis, test, name)
        if not isinstance(outcome, str):
            return (
                [_aggregate_result(name, value, rows) for value, rows in outcome],
                [rows for _, rows in outcome],
                "prefix-sum",
                None,
            )
        # Values prefix sums cannot add exactly: each binding materializes
        # and folds in document order, as its own aggregate step would.
        found = [
            self._route(segment, step, current)[0]
            for segment, current in zip(segments, bindings)
        ]
        return (
            [REGISTRY[name][2](current, f) for current, f in zip(bindings, found)],
            [len(f) for f in found],
            "scalar",
            outcome,
        )

    def _order_bindings(
        self, bindings: list[Context], specs: tuple[ast.OrderSpec, ...]
    ) -> list[Context]:
        """Stable multi-key sort: one stable pass per key, last key first.

        Keys sort numerically when the value looks numeric, as strings
        otherwise (numbers before strings, like typed comparison would).
        """

        def key_for(spec: ast.OrderSpec):
            def key(binding: Context):
                values = atomize(self.evaluate(spec.expr, binding))
                if len(values) > 1:
                    raise QueryEvaluationError("order by key must be a singleton")
                value = values[0] if values else ""
                number = to_number(value)
                if number == number:  # not NaN: numeric key
                    return (0, number, "")
                return (1, 0.0, string_value(value))

            return key

        ordered = list(bindings)
        for spec in reversed(specs):
            ordered.sort(key=key_for(spec), reverse=spec.descending)
        return ordered

    def _eval_if(self, expr: ast.IfExpr, context: Context) -> list:
        if effective_boolean(self.evaluate(expr.condition, context)):
            return self.evaluate(expr.then_expr, context)
        return self.evaluate(expr.else_expr, context)

    def _eval_quantified(self, expr: ast.QuantifiedExpr, context: Context) -> list:
        items = self._evaluate_settled(expr.expr, context)
        results = (
            effective_boolean(
                self.evaluate(expr.condition, context.bind(expr.var, [item]))
            )
            for item in items
        )
        if expr.quantifier == "some":
            return [any(results)]
        return [all(results)]

    # ------------------------------------------------------------------ constructors

    def _eval_constructor(self, expr: ast.ElementConstructor, context: Context) -> list:
        return [self._construct(expr, context)]

    def _construct(self, expr: ast.ElementConstructor, context: Context) -> Constructed:
        """The lazy item a constructor evaluates to: attribute templates
        evaluated to strings, literal text and atomics merged into text
        parts (adjacent atomics of one enclosed expression joined by a
        space), node items kept as the lists their expressions produced."""
        attributes = ()
        if expr.attributes:
            attributes = tuple(
                (template.name, self._attribute_value(template, context))
                for template in expr.attributes
            )
        content: list = []
        text = ""
        for part in expr.content:
            kind = type(part)
            if kind is str:
                text += part
                continue
            if kind is ast.ElementConstructor:
                pieces = (self._construct(part, context),)
            else:
                pieces = _content_pieces(self.evaluate(part, context))
            for piece in pieces:
                if type(piece) is str:
                    text += piece
                    continue
                if text:
                    content.append(text)
                    text = ""
                content.append(piece)
        if text:
            content.append(text)
        return Constructed(expr.tag, attributes, content, self.engine)

    def _attribute_value(self, template: ast.AttributeTemplate, context: Context) -> str:
        parts = []
        for part in template.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                values = self.evaluate(part, context)
                parts.append(" ".join(string_value(v) for v in values))
        return "".join(parts)

    def _evaluate_settled(self, expr: ast.Expr, context: Context) -> list:
        """``expr``'s value at a boundary that needs nodes, not lazy
        constructed items (a variable binding, a path start, a function
        argument, a set operand) — settled only where ``expr`` can yield
        one (:func:`_constructs`), so no other value is scanned."""
        values = self.evaluate(expr, context)
        return self._settle(values) if _constructs(expr) else values

    def _focus_node(self, context: Context):
        """The context item, a constructed one settled (a filter's focus
        may be one)."""
        item = context.require_item()
        return self._settle([item])[0] if type(item) is Constructed else item

    def _settle(self, items: list) -> list:
        """``items`` with each constructed item replaced by its element."""
        out = []
        for item in items:
            if type(item) is Constructed:
                if item.element is None:
                    self.settled += 1
                item = item.settle()
            out.append(item)
        return out

    # ------------------------------------------------------------------ ordering

    def document_order(self, items: list) -> list:
        """Distinct items sorted into (virtual) document order."""
        return self._ordered((items,))[0]

    def _ordered(self, groups) -> tuple[list, int]:
        """``(items, items_in)``: the distinct items of ``groups`` (item
        lists, consumed one at a time) in (virtual) document order, and
        how many items came in.

        Items from different containers (documents, virtual documents,
        constructed trees) order by the engine's stable container index;
        inside one the (v)PBN number *is* the order, so each container's
        items sort by a plain key (:meth:`_key_order`).  Charges
        ``engine.order`` once, with ``items_in``.
        """
        unique: dict[Any, Any] = {}
        buckets: dict[int, tuple] = {}  # id(container) -> (container, items)
        items_in = 0
        index = None
        for items in groups:
            items_in += len(items)
            for item in items:
                identity = _identity(item)
                if identity in unique:
                    continue
                unique[identity] = item
                container = self._container_of(item)
                bucket = buckets.get(id(container))
                if bucket is not None:
                    bucket[1].append(item)
                    continue
                # A call that meets several containers pins their indexes
                # in order of first sight, as they arrive — not in a sort's
                # order of comparisons, and not by an earlier call that met
                # one container alone (a step's): the order of containers
                # is their order of appearance in the query's set
                # operands, the order a distributed merge reproduces.
                if buckets and index is None:
                    index = self.engine.container_index
                    for first, _ in buckets.values():
                        index(first)
                if index is not None:
                    index(container)
                buckets[id(container)] = (container, [item])
        ordered = self._key_order(buckets)
        metrics = self.engine.metrics
        if metrics is not None:
            metrics.incr("engine.order", items_in)
        return ordered, items_in

    def _key_order(self, buckets: dict[int, tuple]) -> list:
        """The containers' items in container-index order, each container
        sorted by key."""
        containers = list(buckets.values())
        if len(containers) > 1:
            index = self.engine.container_index
            containers.sort(key=lambda bucket: index(bucket[0]))
        out: list = []
        for _, group in containers:
            if isinstance(group[0], Node):
                if len(group) > 1:
                    group.sort(key=self._order_path)
                out.extend(group)
            else:
                out.extend(self._virtual_key_order(group))
        return out

    def _virtual_key_order(self, group: list) -> list:
        """One virtual document's items in virtual order: its handle
        first, then one run per virtual type — distinct and in key order,
        which within a type *is* virtual order — merged by the navigator
        (:meth:`VirtualNavigator._merge_runs`)."""
        head: list = []
        runs: dict[int, list] = {}
        vdoc = None
        for item in group:
            if type(item) is VNode:
                vdoc = item._vdoc
                run = runs.get(id(item.vtype))
                if run is None:
                    runs[id(item.vtype)] = [item]
                else:
                    run.append(item)
            else:
                head.append(item)  # the view's handle: one, deduplicated
        if not runs:
            return head
        for run in runs.values():
            if len(run) > 1:
                run.sort(key=_components_of)
        return head + self._virtual_nav._merge_runs(vdoc, list(runs.values()))

    def _container_of(self, item: Any):
        """The document (the version this engine holds), virtual
        document or constructed tree ``item`` is in (a virtual node
        without its view is a container of its own).  A stored node's is
        remembered by its parent for the query: a run of siblings
        resolves once."""
        if isinstance(item, VNode):
            return item if item._vdoc is None else item._vdoc
        if isinstance(item, VirtualDocItem):
            return item.vdoc
        parent = item.parent
        container = self._stored_containers.get(parent)
        if container is None:
            store = self.engine.store_of(item)
            if store is None:
                return self.engine.root_of(item)
            container = store.document
            if parent is not None:
                self._stored_containers[parent] = container
        return container

    def _order_path(self, node: Node) -> tuple[int, ...]:
        if isinstance(node, Document):
            return ()  # the document sorts before everything it contains
        if node.pbn is not None:
            return node.pbn.components
        container = node
        while container.parent is not None:
            container = container.parent
        if isinstance(container, Document):
            from repro.pbn.assign import assign_numbers

            assign_numbers(container)
        else:
            from repro.pbn.assign import _number_subtree
            from repro.pbn.number import Pbn

            _number_subtree(container, Pbn(1))
        assert node.pbn is not None
        return node.pbn.components

    # ------------------------------------------------------------------ dispatch table

    _DISPATCH = {}


def _content_pieces(values: list):
    """One enclosed expression's value as constructor content: the list
    itself when it holds only nodes, else runs of nodes between the text
    of its atomics (adjacent atomics joined by a space)."""
    if len(values) == 1:  # the common case, decided without a loop
        item = values[0]
        return (values,) if isinstance(item, NODE_ITEMS) else (format_atomic(item),)
    for item in values:
        if not isinstance(item, NODE_ITEMS):
            break
    else:
        return (values,) if values else ()
    pieces: list = []
    nodes: list = []
    atomic = False
    for item in values:
        if isinstance(item, NODE_ITEMS):
            nodes.append(item)
            atomic = False
            continue
        if nodes:
            pieces.append(nodes)
            nodes = []
        pieces.append(" " + format_atomic(item) if atomic else format_atomic(item))
        atomic = True
    if nodes:
        pieces.append(nodes)
    return pieces


def _constructs(expr: ast.Expr) -> bool:
    """Can ``expr`` evaluate to lazy constructed items?  Only a
    constructor makes one; sequences, FLWR returns, conditionals, filters
    and the context item (a filter's focus) pass them on unsettled —
    every other expression settles or atomizes what it consumes."""
    kind = type(expr)
    if kind is ast.ElementConstructor or kind is ast.ContextItem:
        return True
    if kind is ast.SequenceExpr:
        return any(map(_constructs, expr.exprs))
    if kind is ast.FLWRExpr:
        return _constructs(expr.return_expr)
    if kind is ast.IfExpr:
        return _constructs(expr.then_expr) or _constructs(expr.else_expr)
    if kind is ast.FilterExpr:
        return _constructs(expr.base)
    return False


def _aggregate_result(name: str, value, rows: int) -> list:
    """The ``count()`` / ``sum()`` result a bounds kernel's ``(value,
    rows)`` stands for.  ``sum()``: the scalar loop folds floats, so a
    non-empty result is a float; the empty sequence sums to the int 0."""
    if name == "count":
        return [rows]
    if rows == 0:
        return [0]
    return [float(value)]


def _lift(view, items: list) -> Optional[list]:
    """Stored items as their store's identity view's: a node under the
    one virtual type of its DataGuide type, the (lone) document as the
    view's handle — or ``None`` when some item is no node of the view's
    store (a document among nodes included)."""
    if isinstance(items[0], Document):
        return [VirtualDocItem(view)] if len(items) == 1 else None
    store = view.store
    ids = store.type_ids_of(items)
    if ids is None:
        return None
    vtypes_of, types_by_id = view.vguide.vtypes_of, store.types_by_id
    vtype_of = {type_id: vtypes_of(types_by_id[type_id])[0] for type_id in set(ids)}
    return list(map(VNode, map(vtype_of.__getitem__, ids), items, repeat(view)))


def _stored(items: list) -> list:
    """``items`` lowered out of a store's own view, if that is whose they
    are: the stored nodes themselves (the document node for the view's
    handle), so stored answers stay stored nodes and the serializer
    writes them.  A step's items share one view (or are not a view's)."""
    if items:
        first = items[0]
        if isinstance(first, VNode):
            view = first._vdoc
        elif isinstance(first, VirtualDocItem):
            view = first.vdoc
        else:
            return items
        if view.is_store_view:
            document = view.document
            return [
                document if isinstance(item, VirtualDocItem) else item.node
                for item in items
            ]
    return items


def _identity(item: Any):
    if isinstance(item, VNode):
        return (id(item.vtype), id(item.node))
    if isinstance(item, VirtualDocItem):
        return id(item.vdoc)
    if isinstance(item, Node):
        return id(item)
    # Atomic values are deduplicated by value+type.
    return (type(item).__name__, item)


def _groupable_paths(expr: ast.Expr, found: list) -> list:
    """``(expression, variable)`` for the sub-expressions of ``expr`` a
    FLWR evaluates set-at-a-time: downward, predicate-free ``child`` /
    ``attribute`` paths from a variable (``$v/a/b``, ``$v/@x``,
    ``$v/text()``, ``$v/*``) and ``count()`` / ``sum()`` of one.  Only
    positions evaluated exactly once per evaluation of ``expr`` are
    searched — never under a predicate, a conditional branch, the right
    operand of ``and`` / ``or``, or a nested FLWR or quantified
    condition (which may also rebind the variable) — so grouping changes
    neither what is evaluated nor how often.  The walk keeps an explicit
    stack (no operator chain is too long for it) and finds them left to
    right."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        children: list = []
        if isinstance(expr, ast.PathExpr):
            var = _variable_path(expr)
            if var is not None:
                found.append((expr, var))
            elif expr.start is not None:
                children.append(expr.start)
        elif isinstance(expr, ast.FuncCall):
            var = (
                _variable_path(expr.args[0])
                if expr.name in ("count", "sum") and len(expr.args) == 1
                else None
            )
            if var is not None:
                found.append((expr, var))
            else:
                children.extend(expr.args)
        elif isinstance(expr, ast.SequenceExpr):
            children.extend(expr.exprs)
        elif isinstance(expr, ast.BinaryOp):
            children.append(expr.left)
            if expr.op not in ("and", "or"):
                children.append(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            children.append(expr.operand)
        elif isinstance(expr, ast.FilterExpr):
            children.append(expr.base)
        elif isinstance(expr, ast.IfExpr):
            children.append(expr.condition)
        elif isinstance(expr, ast.QuantifiedExpr):
            children.append(expr.expr)
        elif isinstance(expr, ast.ElementConstructor):
            parts = [part for template in expr.attributes for part in template.parts]
            children.extend(
                part for part in [*parts, *expr.content] if not isinstance(part, str)
            )
        stack.extend(reversed(children))
    return found


def _variable_path(expr: ast.Expr) -> Optional[str]:
    """The variable a groupable path starts from, or ``None``."""
    if not (
        isinstance(expr, ast.PathExpr)
        and isinstance(expr.start, ast.VarRef)
        and expr.steps
    ):
        return None
    for step in _fuse_descendant_steps(expr.steps):
        if step.axis not in ("child", "attribute") or step.predicates:
            return None
    return expr.start.name


def _fuse_descendant_steps(steps: tuple[ast.Step, ...]) -> list[ast.Step]:
    """Peephole: ``descendant-or-self::node()/child::X`` (the expansion of
    ``//X``) becomes a single ``descendant::X`` step — the standard
    optimization both index-based navigators rely on.

    Fusion is *skipped* when the child step carries a positional predicate:
    ``//x[1]`` means "the first x under each parent", which
    ``descendant::x[1]`` would collapse to a single global first.
    """
    fused: list[ast.Step] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if (
            step.axis == "descendant-or-self"
            and step.test.kind == "node"
            and not step.predicates
            and index + 1 < len(steps)
            and steps[index + 1].axis == "child"
            and not any(_maybe_positional(p) for p in steps[index + 1].predicates)
        ):
            nxt = steps[index + 1]
            fused.append(ast.Step("descendant", nxt.test, nxt.predicates))
            index += 2
        else:
            fused.append(step)
            index += 1
    return fused


#: Functions whose results are never numbers (safe in a fused predicate).
_NON_NUMERIC_FUNCS = frozenset(
    [
        "not", "boolean", "true", "false", "exists", "empty",
        "contains", "starts-with", "ends-with", "contains-text", "matches",
        "string", "concat", "string-join", "normalize-space",
        "substring", "substring-before", "substring-after",
        "translate", "replace", "tokenize",
        "upper-case", "lower-case", "name", "local-name",
        "doc", "virtualDoc", "distinct-values", "data", "text",
    ]
)


def _maybe_positional(expr: ast.Expr) -> bool:
    """Conservatively detect predicates that ``//X`` fusion would break:
    predicates that may evaluate to a *number* (interpreted as a position
    test) or whose value may depend on the focus ``position()``/``last()``.
    """
    return _maybe_numeric(expr) or _uses_focus_position(expr)


def _maybe_numeric(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Literal):
        return isinstance(expr.value, (int, float)) and not isinstance(
            expr.value, bool
        )
    if isinstance(expr, ast.UnaryOp):
        return True
    if isinstance(expr, ast.BinaryOp):
        # Comparisons, logic, and set operators yield booleans/nodes.
        if expr.op in ("=", "!=", "<", "<=", ">", ">=", "or", "and",
                       "|", "except", "intersect"):
            return False
        return True  # arithmetic and "to"
    if isinstance(expr, ast.FuncCall):
        return expr.name not in _NON_NUMERIC_FUNCS
    if isinstance(expr, ast.VarRef):
        return True  # unknown binding: assume the worst
    if isinstance(expr, ast.FilterExpr):
        return _maybe_numeric(expr.base)
    if isinstance(expr, ast.SequenceExpr):
        return any(_maybe_numeric(sub) for sub in expr.exprs)
    if isinstance(expr, ast.IfExpr):
        return _maybe_numeric(expr.then_expr) or _maybe_numeric(expr.else_expr)
    if isinstance(expr, ast.FLWRExpr):
        return True  # could return anything
    # Paths, constructors, context item, quantifiers: nodes or booleans.
    return False


def _uses_focus_position(expr: ast.Expr) -> bool:
    """Does the expression read position()/last() of the *enclosing*
    focus?  Step and filter predicates establish their own focus, so the
    walk does not descend into them."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is ast.BinaryOp:
            stack += (expr.left, expr.right)
        elif kind is ast.FuncCall:
            if expr.name in ("position", "last"):
                return True
            stack += expr.args
        elif kind is ast.PathExpr:
            if expr.start is not None:
                stack.append(expr.start)
        elif kind is ast.UnaryOp:
            stack.append(expr.operand)
        elif kind is ast.SequenceExpr:
            stack += expr.exprs
        elif kind is ast.IfExpr:
            stack += (expr.condition, expr.then_expr, expr.else_expr)
        elif kind is ast.FilterExpr:
            stack.append(expr.base)
    return False


def _general_compare(op: str, left: list, right: list) -> bool:
    """XPath general comparison: existential over atomized pairs."""
    left_values = atomize(left)
    right_values = atomize(right)
    for a in left_values:
        for b in right_values:
            if _compare_pair(op, a, b):
                return True
    return False


def _compare_pair(op: str, a: Any, b: Any) -> bool:
    number_a = to_number(a)
    number_b = to_number(b)
    if number_a == number_a and number_b == number_b:
        x, y = number_a, number_b
    else:
        x, y = string_value(a), string_value(b)
    if op == "=":
        return x == y
    if op == "!=":
        return x != y
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    return x >= y


def _arithmetic(op: str, left: list, right: list) -> list:
    left_values = atomize(left)
    right_values = atomize(right)
    if not left_values or not right_values:
        return []
    if len(left_values) > 1 or len(right_values) > 1:
        raise QueryEvaluationError("arithmetic on multi-item sequences")
    a = to_number(left_values[0])
    b = to_number(right_values[0])
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "div":
        if b == 0:
            raise QueryEvaluationError("division by zero")
        result = a / b
    else:  # mod
        if b == 0:
            raise QueryEvaluationError("modulo by zero")
        result = a - b * int(a / b)
    if result == result and abs(result) != float("inf") and result == int(result):
        return [int(result)]
    return [result]


def _range_sequence(left: list, right: list) -> list:
    left_values = atomize(left)
    right_values = atomize(right)
    if not left_values or not right_values:
        return []
    start = int(to_number(left_values[0]))
    end = int(to_number(right_values[0]))
    return list(range(start, end + 1))


Evaluator._DISPATCH = {
    ast.Literal: Evaluator._eval_literal,
    ast.VarRef: Evaluator._eval_var,
    ast.ContextItem: Evaluator._eval_context_item,
    ast.SequenceExpr: Evaluator._eval_sequence,
    ast.FuncCall: Evaluator._eval_func,
    ast.RootExpr: Evaluator._eval_root,
    ast.PathExpr: Evaluator._eval_path,
    ast.FilterExpr: Evaluator._eval_filter_expr,
    ast.UnaryOp: Evaluator._eval_unary,
    ast.BinaryOp: Evaluator._eval_binary,
    ast.FLWRExpr: Evaluator._eval_flwr,
    ast.IfExpr: Evaluator._eval_if,
    ast.QuantifiedExpr: Evaluator._eval_quantified,
    ast.ElementConstructor: Evaluator._eval_constructor,
}
