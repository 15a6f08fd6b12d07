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
    """Render an expression tree one node per line, children indented."""
    pad = "  " * indent
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        prefix = "  " * depth
        if isinstance(node, ast.Literal):
            lines.append(f"{prefix}literal {node.value!r}")
        elif isinstance(node, ast.VarRef):
            lines.append(f"{prefix}${node.name}")
        elif isinstance(node, ast.ContextItem):
            lines.append(f"{prefix}context-item")
        elif isinstance(node, ast.RootExpr):
            lines.append(f"{prefix}root")
        elif isinstance(node, ast.SequenceExpr):
            lines.append(f"{prefix}sequence")
            for sub in node.exprs:
                walk(sub, depth + 1)
        elif isinstance(node, ast.FuncCall):
            lines.append(f"{prefix}call {node.name}()")
            for arg in node.args:
                walk(arg, depth + 1)
        elif isinstance(node, ast.PathExpr):
            lines.append(f"{prefix}path")
            if node.start is not None:
                walk(node.start, depth + 1)
            for step in node.steps:
                test = _test_text(step.test)
                lines.append(f"{prefix}  step {step.axis}::{test}")
                for predicate in step.predicates:
                    lines.append(f"{prefix}    predicate")
                    walk(predicate, depth + 3)
        elif isinstance(node, ast.FilterExpr):
            lines.append(f"{prefix}filter")
            walk(node.base, depth + 1)
            for predicate in node.predicates:
                lines.append(f"{prefix}  predicate")
                walk(predicate, depth + 2)
        elif isinstance(node, ast.BinaryOp):
            lines.append(f"{prefix}op {node.op!r}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)
        elif isinstance(node, ast.UnaryOp):
            lines.append(f"{prefix}unary {node.op!r}")
            walk(node.operand, depth + 1)
        elif isinstance(node, ast.FLWRExpr):
            lines.append(f"{prefix}flwr")
            for clause in node.clauses:
                if isinstance(clause, ast.ForClause):
                    at = f" at ${clause.position_var}" if clause.position_var else ""
                    lines.append(f"{prefix}  for ${clause.var}{at}")
                    walk(clause.expr, depth + 2)
                else:
                    lines.append(f"{prefix}  let ${clause.var}")
                    walk(clause.expr, depth + 2)
            if node.where is not None:
                lines.append(f"{prefix}  where")
                walk(node.where, depth + 2)
            for spec in node.order_by:
                direction = "descending" if spec.descending else "ascending"
                lines.append(f"{prefix}  order-by {direction}")
                walk(spec.expr, depth + 2)
            lines.append(f"{prefix}  return")
            walk(node.return_expr, depth + 2)
        elif isinstance(node, ast.IfExpr):
            lines.append(f"{prefix}if")
            walk(node.condition, depth + 1)
            lines.append(f"{prefix}then")
            walk(node.then_expr, depth + 1)
            lines.append(f"{prefix}else")
            walk(node.else_expr, depth + 1)
        elif isinstance(node, ast.QuantifiedExpr):
            lines.append(f"{prefix}{node.quantifier} ${node.var}")
            walk(node.expr, depth + 1)
            lines.append(f"{prefix}satisfies")
            walk(node.condition, depth + 1)
        elif isinstance(node, ast.ElementConstructor):
            lines.append(f"{prefix}construct <{node.tag}>")
            for template in node.attributes:
                lines.append(f"{prefix}  attribute {template.name}")
                for part in template.parts:
                    if isinstance(part, str):
                        lines.append(f"{prefix}    text {part!r}")
                    else:
                        walk(part, depth + 2)
            for part in node.content:
                if isinstance(part, str):
                    lines.append(f"{prefix}  text {part!r}")
                else:
                    walk(part, depth + 1)
        else:  # pragma: no cover - exhaustive over the AST
            lines.append(f"{prefix}{type(node).__name__}")

    walk(expr, indent)
    return "\n".join(pad + line if False else line for line in lines)


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

    def walk(node) -> None:
        import dataclasses

        if isinstance(node, ast.PathExpr) and isinstance(node.start, ast.FuncCall):
            annotated = _annotate_one(node, engine)
            if annotated:
                lines.extend(annotated)
        if dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                if isinstance(value, (ast.Expr, ast.Step)):
                    walk(value)
                elif isinstance(value, tuple):
                    for item in value:
                        if isinstance(item, (ast.Expr, ast.Step, ast.ForClause,
                                             ast.LetClause, ast.OrderSpec,
                                             ast.AttributeTemplate)):
                            walk(item)

    walk(expr)
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
