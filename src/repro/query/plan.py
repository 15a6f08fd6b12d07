"""Explain support: expression rendering and statistics-annotated plans.

:func:`explain_expr` renders the parsed tree.  :func:`annotate_paths` goes
further when documents are loaded: it propagates candidate (virtual) types
through each path expression, the way the indexed and virtual navigators
will at run time, and prints per-step cardinality estimates from the
DataGuide's instance counts — the planner's view of the query.
"""

from __future__ import annotations

from typing import Optional

from repro.query import ast
from repro.query.joins import type_matches


def explain_expr(expr: ast.Expr, indent: int = 0) -> str:
    """Render an expression tree one node per line, children indented.

    A left-deep chain of one operator renders as one ``op`` node over its
    operands in order (the evaluator folds it in one loop too), and a
    sign chain as one ``unary`` line.  The walk keeps an explicit stack,
    so no chain is too long to render."""
    lines: list[str] = []
    stack: list = [(expr, indent)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
        else:
            stack.extend(reversed(_render(*entry)))
    return "\n".join(lines)


def _render(node, depth: int) -> list:
    """One node's line, then its children as ``(node, depth)`` entries
    interleaved with their label lines, in output order."""
    prefix = "  " * depth
    entries: list = []
    if isinstance(node, ast.Literal):
        entries.append(f"{prefix}literal {node.value!r}")
    elif isinstance(node, ast.VarRef):
        entries.append(f"{prefix}${node.name}")
    elif isinstance(node, ast.ContextItem):
        entries.append(f"{prefix}context-item")
    elif isinstance(node, ast.RootExpr):
        entries.append(f"{prefix}root")
    elif isinstance(node, ast.SequenceExpr):
        entries.append(f"{prefix}sequence")
        for sub in node.exprs:
            entries.append((sub, depth + 1))
    elif isinstance(node, ast.FuncCall):
        entries.append(f"{prefix}call {node.name}()")
        for arg in node.args:
            entries.append((arg, depth + 1))
    elif isinstance(node, ast.PathExpr):
        entries.append(f"{prefix}path")
        if node.start is not None:
            entries.append((node.start, depth + 1))
        for step in node.steps:
            test = _test_text(step.test)
            entries.append(f"{prefix}  step {step.axis}::{test}")
            for predicate in step.predicates:
                entries.append(f"{prefix}    predicate")
                entries.append((predicate, depth + 3))
    elif isinstance(node, ast.FilterExpr):
        entries.append(f"{prefix}filter")
        entries.append((node.base, depth + 1))
        for predicate in node.predicates:
            entries.append(f"{prefix}  predicate")
            entries.append((predicate, depth + 2))
    elif isinstance(node, ast.BinaryOp):
        entries.append(f"{prefix}op {node.op!r}")
        operands = [node.right]
        left = node.left
        while type(left) is ast.BinaryOp and left.op == node.op:
            operands.append(left.right)
            left = left.left
        operands.append(left)
        for operand in reversed(operands):
            entries.append((operand, depth + 1))
    elif isinstance(node, ast.UnaryOp):
        signs = ""
        while isinstance(node, ast.UnaryOp):
            signs += node.op
            node = node.operand
        entries.append(f"{prefix}unary {signs!r}")
        entries.append((node, depth + 1))
    elif isinstance(node, ast.FLWRExpr):
        entries.append(f"{prefix}flwr")
        for clause in node.clauses:
            if isinstance(clause, ast.ForClause):
                at = f" at ${clause.position_var}" if clause.position_var else ""
                entries.append(f"{prefix}  for ${clause.var}{at}")
                entries.append((clause.expr, depth + 2))
            else:
                entries.append(f"{prefix}  let ${clause.var}")
                entries.append((clause.expr, depth + 2))
        if node.where is not None:
            entries.append(f"{prefix}  where")
            entries.append((node.where, depth + 2))
        for spec in node.order_by:
            direction = "descending" if spec.descending else "ascending"
            entries.append(f"{prefix}  order-by {direction}")
            entries.append((spec.expr, depth + 2))
        entries.append(f"{prefix}  return")
        entries.append((node.return_expr, depth + 2))
    elif isinstance(node, ast.IfExpr):
        entries.append(f"{prefix}if")
        entries.append((node.condition, depth + 1))
        entries.append(f"{prefix}then")
        entries.append((node.then_expr, depth + 1))
        entries.append(f"{prefix}else")
        entries.append((node.else_expr, depth + 1))
    elif isinstance(node, ast.QuantifiedExpr):
        entries.append(f"{prefix}{node.quantifier} ${node.var}")
        entries.append((node.expr, depth + 1))
        entries.append(f"{prefix}satisfies")
        entries.append((node.condition, depth + 1))
    elif isinstance(node, ast.ElementConstructor):
        entries.append(f"{prefix}construct <{node.tag}>")
        for template in node.attributes:
            entries.append(f"{prefix}  attribute {template.name}")
            for part in template.parts:
                if isinstance(part, str):
                    entries.append(f"{prefix}    text {part!r}")
                else:
                    entries.append((part, depth + 2))
        for part in node.content:
            if isinstance(part, str):
                entries.append(f"{prefix}  text {part!r}")
            else:
                entries.append((part, depth + 1))
    else:  # pragma: no cover - exhaustive over the AST
        entries.append(f"{prefix}{type(node).__name__}")
    return entries


def _test_text(test: ast.NodeTest) -> str:
    if test.kind == "name":
        return test.name
    if test.kind == "wildcard":
        return "*"
    return f"{test.kind}()"


def step_label(step: ast.Step) -> str:
    """The canonical ``axis::test`` rendering of a step — shared by the
    explain output and the EXPLAIN ANALYZE operator names, so a profile's
    operator set lines up with the plan's."""
    return f"{step.axis}::{_test_text(step.test)}"


# ---------------------------------------------------------------------------
# statistics-annotated path plans
# ---------------------------------------------------------------------------


def annotate_paths(expr: ast.Expr, engine) -> list[str]:
    """Planner annotations for every ``doc``/``virtualDoc`` path in
    ``expr``: per step, the candidate types and the estimated cardinality
    (sum of DataGuide instance counts; an upper bound for virtual types,
    whose orphaned instances reachability filters out at run time)."""
    lines: list[str] = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.PathExpr) and isinstance(node.start, ast.FuncCall):
            annotated = _annotate_one(node, engine)
            if annotated:
                lines.extend(annotated)
        stack.extend(reversed(ast.subexpressions(node)))
    return lines


def _annotate_one(path: ast.PathExpr, engine) -> Optional[list[str]]:
    call = path.start
    if not all(isinstance(a, ast.Literal) and isinstance(a.value, str) for a in call.args):
        return None
    if call.name == "doc" and len(call.args) == 1:
        try:
            store = engine.store(call.args[0].value)
        except Exception:
            return None
        return _annotate_physical(path, store)
    if call.name == "virtualDoc" and len(call.args) == 2:
        try:
            vdoc = engine.virtual(call.args[0].value, call.args[1].value)
        except Exception:
            return None
        return _annotate_virtual(path, vdoc)
    return None


def _annotate_physical(path: ast.PathExpr, store) -> list[str]:
    from repro.query.eval import _fuse_descendant_steps

    lines = [f'plan: doc("{store.document.uri}")']
    current = list(store.guide.roots)
    from_document = True
    for step in _fuse_descendant_steps(path.steps):
        current, note = _propagate(step, current, store.guide.iter_types, from_document)
        estimate = sum(t.count for t in current)
        lines.append(
            f"  step {step.axis}::{_test_text(step.test)}"
            f" -> {len(current)} type(s), <= {estimate} node(s){note}"
        )
        from_document = False
    return lines


def _annotate_virtual(path: ast.PathExpr, vdoc) -> list[str]:
    from repro.query.eval import _fuse_descendant_steps

    vguide = vdoc.vguide
    lines = [
        f'plan: virtualDoc("{vdoc.document.uri}") '
        f"[{len(vguide)} virtual types, chain-exact={vguide.chain_exact()}]"
    ]
    current = list(vguide.roots)
    from_document = True
    for step in _fuse_descendant_steps(path.steps):
        current, note = _propagate(step, current, vguide.iter_vtypes, from_document)
        estimate = sum(t.original.count for t in current)
        lines.append(
            f"  step {step.axis}::{_test_text(step.test)}"
            f" -> {len(current)} vtype(s), <= {estimate} node(s){note}"
        )
        from_document = False
    return lines


def _propagate(step, current, all_types, from_document):
    """Candidate-type propagation for one step (shared physical/virtual)."""
    axis = step.axis
    note = " (+predicates)" if step.predicates else ""
    if axis in ("child", "attribute"):
        if from_document:
            found = [t for t in current if type_matches(t, step.test, axis)]
        else:
            found = [
                child
                for t in current
                for child in t.children
                if type_matches(child, step.test, axis)
            ]
        return found, note
    if axis in ("descendant", "descendant-or-self"):
        if from_document:
            pool = list(all_types())
        else:
            unique = {}
            for t in current:
                for descendant in t.iter_subtree():
                    if descendant is not t or axis == "descendant-or-self":
                        unique[id(descendant)] = descendant
            pool = list(unique.values())
        return [t for t in pool if type_matches(t, step.test, axis)], note
    if axis == "parent":
        found = [t.parent for t in current if t.parent is not None]
        unique = {id(t): t for t in found if type_matches(t, step.test, axis)}
        return list(unique.values()), note
    if axis in ("ancestor", "ancestor-or-self"):
        found = {}
        for t in current:
            walker = t if axis == "ancestor-or-self" else t.parent
            while walker is not None:
                if type_matches(walker, step.test, "ancestor"):
                    found[id(walker)] = walker
                walker = walker.parent
        return list(found.values()), note
    if axis == "self":
        return [t for t in current if type_matches(t, step.test, axis)], note
    # Ordering/sibling axes: estimate with every type in scope.
    pool = [t for t in all_types() if type_matches(t, step.test, axis)]
    return pool, note + " (order axis: whole-scope estimate)"
