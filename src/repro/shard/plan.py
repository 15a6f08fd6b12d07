"""Static shard analysis of a parsed plan: sources, routing, pruning.

The scatter-gather executor never ships data between shards; it ships the
*plan*.  For that it needs three static facts about a parsed expression:

* which document sources (``doc(uri)`` / ``virtualDoc(uri, spec)`` calls
  with literal arguments) the plan references, in first-appearance order —
  the appearance order is the order the evaluator first *sees* each
  container, which is what fixes cross-document order in the unsharded
  engine (``Engine.container_index`` assigns on first sight), so the
  merge reproduces it;
* whether any source appears in a *guarded* position — a predicate, a
  ``where`` clause, an ``if`` condition, a quantifier body.  Pruning a
  foreign document there would silently change the guard's value on the
  shard that keeps evaluating it (a correlated cross-shard subquery), so
  scatter refuses those plans instead;
* a per-shard *specialization*: the same plan with every source the shard
  does not own replaced by the empty sequence, so a 12-document union
  evaluates as a 3-document union on a shard owning 3 of them.

Everything here is pure AST manipulation over the frozen dataclasses of
:mod:`repro.query.ast`; no engine or store is touched.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.query import ast
from repro.shard.catalog import ShardError

#: Functions that open a document source, by name and uri-argument count.
_SOURCE_FUNCTIONS = {"doc": 1, "virtualDoc": 2}

#: Top-level aggregate calls that distribute over a disjoint document
#: partition, with the reduction that recombines per-shard answers.
COMBINERS = {
    "count": sum,
    "sum": sum,
    "exists": any,
}


@dataclasses.dataclass(frozen=True)
class Source:
    """One document source call: ``doc(uri)`` or ``virtualDoc(uri, spec)``."""

    kind: str  # "doc" | "virtualDoc"
    uri: str
    spec: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "virtualDoc":
            return f'virtualDoc("{self.uri}", ...)'
        return f'doc("{self.uri}")'


@dataclasses.dataclass
class PlanSources:
    """The source analysis of one plan.

    :ivar sources: distinct sources, first-appearance order.
    :ivar guarded: sources that (also) appear inside a predicate /
        condition / where clause.
    :ivar dynamic: ``True`` when a ``doc``/``virtualDoc`` call has a
        non-literal argument, so routing cannot be decided statically.
    :ivar ranges: ``True`` when the plan builds a range (``a to b``):
        its length comes from the query, not from metered steps, so no
        cost budget bounds it.
    """

    sources: list[Source]
    guarded: set[Source]
    dynamic: bool
    ranges: bool = False

    @property
    def uris(self) -> list[str]:
        seen: list[str] = []
        for source in self.sources:
            if source.uri not in seen:
                seen.append(source.uri)
        return seen

    def ordinal(self, source: Source) -> int:
        return self.sources.index(source)


def _as_source(node: ast.FuncCall) -> Optional[Source]:
    """The :class:`Source` of a doc/virtualDoc call with literal args,
    ``None`` for other calls."""
    arity = _SOURCE_FUNCTIONS.get(node.name)
    if arity is None or len(node.args) != arity:
        return None
    args = []
    for arg in node.args:
        if not (isinstance(arg, ast.Literal) and isinstance(arg.value, str)):
            return None
        args.append(arg.value)
    if node.name == "virtualDoc":
        return Source("virtualDoc", args[0], args[1])
    return Source("doc", args[0])


def _is_source_call(node: ast.FuncCall) -> bool:
    return node.name in _SOURCE_FUNCTIONS


def referenced_sources(expr: ast.Expr) -> PlanSources:
    """Walk ``expr`` left to right and collect its document sources (an
    explicit stack: no operator chain is too long to walk)."""
    analysis = PlanSources(sources=[], guarded=set(), dynamic=False)
    stack = [(expr, False)]
    while stack:
        node, guarded = stack.pop()
        kind = type(node)
        if kind is ast.FuncCall and node.name in _SOURCE_FUNCTIONS:
            source = _as_source(node)
            if source is None:
                analysis.dynamic = True
            else:
                if source not in analysis.sources:
                    analysis.sources.append(source)
                if guarded:
                    analysis.guarded.add(source)
        elif kind is ast.BinaryOp and node.op == "to":
            analysis.ranges = True
        stack.extend(reversed(_children(node, kind, guarded)))
    return analysis


def _children(node, kind: type, guarded: bool) -> list:
    """``node``'s subexpressions, left to right, each paired with whether
    it sits in a guarded position (a predicate, ``where``, ``order by``,
    ``if`` condition or quantifier condition)."""
    if kind is ast.Step:
        return [(predicate, True) for predicate in node.predicates]
    if kind is ast.FilterExpr:
        return [(node.base, guarded), *((p, True) for p in node.predicates)]
    if kind is ast.FLWRExpr:
        children = [(clause.expr, guarded) for clause in node.clauses]
        if node.where is not None:
            children.append((node.where, True))
        children.extend((spec.expr, True) for spec in node.order_by)
        children.append((node.return_expr, guarded))
        return children
    if kind is ast.IfExpr:
        return [
            (node.condition, True),
            (node.then_expr, guarded),
            (node.else_expr, guarded),
        ]
    if kind is ast.QuantifiedExpr:
        return [(node.expr, guarded), (node.condition, True)]
    return [(child, guarded) for child in ast.subexpressions(node)]


_EMPTY = ast.SequenceExpr(())


def _is_empty(node) -> bool:
    return isinstance(node, ast.SequenceExpr) and not node.exprs


def _merge_safe(node) -> bool:
    """Conservatively: does ``node`` evaluate to a document-ordered,
    duplicate-free node sequence, making union normalization a no-op?

    Used to prune ``X | ()`` down to ``X`` during specialization: the
    union operator sorts and deduplicates, so dropping it is only sound
    when ``X`` already comes out normalized.  Path steps and node-set
    operators end in :meth:`Evaluator.document_order`, and a source call
    yields a single root.
    """
    if isinstance(node, ast.BinaryOp):
        return node.op in ("|", "except", "intersect")
    if isinstance(node, ast.FuncCall):
        return _is_source_call(node)
    if isinstance(node, ast.PathExpr):
        if node.steps:
            return True
        return _merge_safe(node.start)
    if isinstance(node, ast.RootExpr):
        return True
    if isinstance(node, ast.FilterExpr):
        return _merge_safe(node.base)
    return False


def specialize(expr: ast.Expr, keep_uris: set[str]):
    """``expr`` with every doc/virtualDoc call whose uri is *not* in
    ``keep_uris`` replaced by the empty sequence.

    Unions over a pruned operand collapse (``X | () -> X`` when ``X`` is
    statically known to be normalized): a 12-document union specializes
    to a 3-document union on a shard owning 3 of them, *without* the
    nine leftover union nodes each re-sorting the accumulated result.
    That collapse is what makes the scatter's per-shard sort work scale
    as (k/s)^2 rather than k^2 — what the benchmark's
    ``shard.scatter_speedup`` row measures.

    Returns the original object when nothing changed, so identity can be
    used to detect a no-op specialization.
    """

    def rebuild(node):
        if isinstance(node, ast.FuncCall) and _is_source_call(node):
            source = _as_source(node)
            if source is not None and source.uri not in keep_uris:
                return _EMPTY
            return node
        if isinstance(node, ast.BinaryOp):
            # A left-deep operator chain rebuilds in one loop, innermost
            # operator first, so no chain is too long to specialize.
            spine = []
            while isinstance(node, ast.BinaryOp):
                spine.append(node)
                node = node.left
            left = rebuild(node)
            for op_node in reversed(spine):
                left = _rejoin(op_node, left, rebuild(op_node.right))
            return left
        if isinstance(node, ast.UnaryOp):
            signs = []
            while isinstance(node, ast.UnaryOp):
                signs.append(node)
                node = node.operand
            operand = rebuild(node)
            for sign in reversed(signs):
                if operand is not sign.operand:
                    sign = dataclasses.replace(sign, operand=operand)
                operand = sign
            return operand
        if isinstance(node, ast.PathExpr) and node.start is not None:
            start = rebuild(node.start)
            if _is_empty(start):
                # A path over no items applies no step: statically empty.
                return _EMPTY
            steps = rebuild(node.steps)
            if start is node.start and steps is node.steps:
                return node
            return dataclasses.replace(node, start=start, steps=steps)
        if isinstance(node, ast.FilterExpr):
            base = rebuild(node.base)
            if _is_empty(base):
                return _EMPTY
            predicates = rebuild(node.predicates)
            if base is node.base and predicates is node.predicates:
                return node
            return dataclasses.replace(node, base=base, predicates=predicates)
        if isinstance(node, tuple):
            items = tuple(rebuild(item) for item in node)
            if all(new is old for new, old in zip(items, node)):
                return node
            return items
        if not dataclasses.is_dataclass(node) or isinstance(node, ast.Literal):
            return node
        changes = {}
        for field_ in dataclasses.fields(node):
            value = getattr(node, field_.name)
            if isinstance(value, (ast.Expr, ast.Step, tuple)) or (
                dataclasses.is_dataclass(value) and not isinstance(value, str)
            ):
                new = rebuild(value)
                if new is not value:
                    changes[field_.name] = new
        if not changes:
            return node
        return dataclasses.replace(node, **changes)

    return rebuild(expr)


def _rejoin(node: ast.BinaryOp, left, right):
    """``node`` over its rebuilt operands.  A union over a pruned operand
    collapses: ``() | () -> ()``, and ``X | () -> X`` when ``X`` is
    statically known to be normalized."""
    if node.op == "|":
        if _is_empty(left) and _is_empty(right):
            return _EMPTY
        if _is_empty(left) and _merge_safe(right):
            return right
        if _is_empty(right) and _merge_safe(left):
            return left
    if left is node.left and right is node.right:
        return node
    return dataclasses.replace(node, left=left, right=right)


def combiner_of(expr: ast.Expr) -> Optional[str]:
    """The name of the top-level distributive aggregate of ``expr``
    (``count`` / ``sum`` / ``exists``), or ``None``.

    These are the aggregates a scatter can push down: the documents are
    disjoint across shards, so the global answer is the reduction of the
    per-shard answers.
    """
    if (
        isinstance(expr, ast.FuncCall)
        and expr.name in COMBINERS
        and len(expr.args) == 1
    ):
        return expr.name
    return None


def check_scatterable(analysis: PlanSources, involved: dict[str, int]) -> None:
    """Refuse plans the scatter cannot evaluate correctly.

    :param involved: ``uri -> shard`` for the plan's sources.
    :raises ShardError: for dynamic source uris, and for guarded sources
        whenever the plan spans more than one shard (a guard evaluated on
        a shard that does not own the guarded document would silently see
        an empty sequence).
    """
    if analysis.dynamic:
        raise ShardError(
            "cannot route a doc()/virtualDoc() call with a computed uri "
            "across shards; use a literal uri or a single-shard collection"
        )
    if len(set(involved.values())) <= 1:
        return
    for source in analysis.sources:
        if source in analysis.guarded:
            raise ShardError(
                f"{source.describe()} appears inside a predicate or "
                "condition of a plan that spans several shards; correlated "
                "cross-shard subqueries are not supported — restructure the "
                "query or co-locate the documents on one shard"
            )
