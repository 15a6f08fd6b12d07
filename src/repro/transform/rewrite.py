"""Baseline B3 — "rewrite the query": evaluate through the view by
translating virtual paths into physical paths.

The paper's Section 1 lists query rewriting as the classical alternative to
materialization, and Sections 2–3 explain why it is limited: constructed
element types differ from stored ones, transformed values must be built
before being queried, and each hierarchy needs its own view.  This module
implements the fragment that *is* mechanical — predicate-free downward
location paths over a vDataGuide — so experiments can compare vPBN against
a competent rewriter rather than a strawman:

* a virtual child step ``p/c`` becomes physical up-then-down navigation
  through the types' least common ancestor:
  ``ancestor-or-self::<lca label>/descendant::<c label>``;
* a virtual descendant step targets the matching types' original labels
  directly.

Everything else — predicates (they refer to *virtual* structure), reverse
and ordering axes (virtual order differs from physical order), constructors
(transformed values) — raises :class:`RewriteError`.  Those limits are not
an implementation shortcut; they are the substance of the paper's argument
against rewriting, and the E10 experiment quantifies the fragment where the
comparison is fair.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.query import ast
from repro.query.joins import type_matches
from repro.vdataguide.ast import VGuide, VType


class RewriteError(ReproError):
    """Raised when a query lies outside the rewritable fragment."""


def rewrite_query(query: str, engine) -> str:
    """Rewrite every ``virtualDoc(uri, spec)...`` path in ``query`` into a
    physical ``doc(uri)...`` path and render the result.

    Convenience front end over :func:`rewrite_path` for experiments; the
    virtual views are resolved through ``engine.virtual``.

    :raises RewriteError: if any virtual path lies outside the fragment.
    """
    from repro.query.parser import parse_query

    rewritten = rewrite_expr(parse_query(query), engine)
    return _render(rewritten)


def rewrite_expr(expr: ast.Expr, engine) -> ast.Expr:
    """Recursively rewrite virtual paths inside an expression tree."""
    if (
        isinstance(expr, ast.PathExpr)
        and isinstance(expr.start, ast.FuncCall)
        and expr.start.name == "virtualDoc"
    ):
        arguments = expr.start.args
        if len(arguments) != 2 or not all(
            isinstance(a, ast.Literal) and isinstance(a.value, str) for a in arguments
        ):
            raise RewriteError("virtualDoc arguments must be string literals")
        uri = arguments[0].value
        spec = arguments[1].value
        vguide = engine.virtual(uri, spec).vguide
        physical = ast.FuncCall("doc", (ast.Literal(uri),))
        return rewrite_path(expr, vguide, physical)
    return _rebuild(expr, engine)


def _rebuild(node, engine):
    """Generic recursion over the frozen AST dataclasses."""
    import dataclasses

    if not dataclasses.is_dataclass(node):
        return node
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Expr):
            new_value = rewrite_expr(value, engine)
        elif isinstance(value, tuple):
            new_value = tuple(
                rewrite_expr(item, engine)
                if isinstance(item, ast.Expr)
                else _rebuild(item, engine)
                for item in value
            )
        else:
            continue
        if new_value != value:
            changes[field.name] = new_value
    return dataclasses.replace(node, **changes) if changes else node


def _render(expr: ast.Expr) -> str:
    """Render an expression back to query syntax (the rewritable fragment
    plus the surrounding constructs experiments use)."""
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, str):
            return '"' + expr.value.replace('"', "&quot;") + '"'
        return str(expr.value)
    if isinstance(expr, ast.VarRef):
        return f"${expr.name}"
    if isinstance(expr, ast.ContextItem):
        return "."
    if isinstance(expr, ast.FuncCall):
        return f"{expr.name}({', '.join(_render(a) for a in expr.args)})"
    if isinstance(expr, ast.SequenceExpr):
        return "(" + ", ".join(_render(e) for e in expr.exprs) + ")"
    if isinstance(expr, ast.PathExpr):
        start = "" if expr.start is None else _render_path_start(expr.start)
        return start + "".join("/" + _render_step(s) for s in expr.steps)
    if isinstance(expr, ast.FilterExpr):
        return _render(expr.base) + "".join(
            f"[{_render(p)}]" for p in expr.predicates
        )
    if isinstance(expr, ast.BinaryOp):
        op = expr.op if expr.op not in ("|",) else "|"
        return f"({_render(expr.left)} {op} {_render(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op}{_render(expr.operand)}"
    if isinstance(expr, ast.FLWRExpr):
        parts = []
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                at = f" at ${clause.position_var}" if clause.position_var else ""
                parts.append(f"for ${clause.var}{at} in {_render(clause.expr)}")
            else:
                parts.append(f"let ${clause.var} := {_render(clause.expr)}")
        if expr.where is not None:
            parts.append(f"where {_render(expr.where)}")
        for spec in expr.order_by:
            direction = " descending" if spec.descending else ""
            parts.append(f"order by {_render(spec.expr)}{direction}")
        parts.append(f"return {_render(expr.return_expr)}")
        return " ".join(parts)
    if isinstance(expr, ast.IfExpr):
        return (
            f"if ({_render(expr.condition)}) then {_render(expr.then_expr)} "
            f"else {_render(expr.else_expr)}"
        )
    if isinstance(expr, ast.ElementConstructor):
        attributes = "".join(
            f' {t.name}="'
            + "".join(p if isinstance(p, str) else "{" + _render(p) + "}" for p in t.parts)
            + '"'
            for t in expr.attributes
        )
        if not expr.content:
            return f"<{expr.tag}{attributes}/>"
        content = "".join(
            part
            if isinstance(part, str)
            else _render(part)
            if isinstance(part, ast.ElementConstructor)
            else "{" + _render(part) + "}"
            for part in expr.content
        )
        return f"<{expr.tag}{attributes}>{content}</{expr.tag}>"
    raise RewriteError(f"cannot render {type(expr).__name__}")


def _render_path_start(start: ast.Expr) -> str:
    if isinstance(start, ast.RootExpr):
        return ""
    return _render(start)


def _render_step(step: ast.Step) -> str:
    test = step.test
    if test.kind == "name":
        test_text = test.name
    elif test.kind == "wildcard":
        test_text = "*"
    else:
        test_text = f"{test.kind}()"
    predicates = "".join(f"[{_render(p)}]" for p in step.predicates)
    return f"{step.axis}::{test_text}{predicates}"


def rewrite_path(
    expr: ast.Expr, vguide: VGuide, physical_start: ast.Expr
) -> ast.Expr:
    """Rewrite a virtual location path into a physical one.

    :param expr: a :class:`PathExpr` whose steps are all downward
        (``child``, ``attribute``, ``descendant``, or the
        ``descendant-or-self::node()`` produced by ``//``) and
        predicate-free.
    :param vguide: the resolved virtual hierarchy the path addresses.
    :param physical_start: expression producing the physical document,
        usually the ``doc(uri)`` call.
    :raises RewriteError: for anything outside the fragment.
    """
    if not isinstance(expr, ast.PathExpr):
        raise RewriteError("only path expressions are rewritable")
    steps: list[ast.Step] = []
    current: list[VType] = list(vguide.roots)
    from_document = True
    pending_descendant = False
    for step in expr.steps:
        if step.predicates:
            raise RewriteError(
                "predicates refer to virtual structure and are not rewritable"
            )
        if step.axis == "descendant-or-self" and step.test.kind == "node":
            pending_descendant = True
            continue
        if step.axis in ("child", "attribute") and not pending_descendant:
            current, physical = _rewrite_child(step, current, from_document)
        elif step.axis == "descendant" or (
            step.axis in ("child", "attribute") and pending_descendant
        ):
            current, physical = _rewrite_descendant(step, current, vguide, from_document)
        else:
            raise RewriteError(
                f"axis {step.axis!r} is outside the rewritable fragment"
            )
        pending_descendant = False
        steps.extend(physical)
        from_document = False
        if not current:
            break
    if not current:
        # No virtual type matches: an impossible (but parseable) name test.
        steps = [ast.Step("child", ast.NodeTest("name", "__no_such_type__"))]
    return ast.PathExpr(physical_start, tuple(steps))


def _single_label(matched: list[VType]) -> str:
    labels = {vtype.original.name for vtype in matched}
    if len(labels) != 1:
        raise RewriteError(
            "a step matching several original labels needs a union rewrite "
            f"(labels: {sorted(labels)})"
        )
    return labels.pop()


def _down_step(matched: list[VType], test: ast.NodeTest, axis: str) -> ast.Step:
    """The physical downward step reaching ``matched`` types' instances."""
    if test.kind in ("text", "node", "wildcard"):
        physical_axis = "attribute" if axis == "attribute" else "descendant"
        return ast.Step(physical_axis, test)
    label = _single_label(matched)
    if axis == "attribute":
        return ast.Step("attribute", ast.NodeTest("name", label.lstrip("@")))
    return ast.Step("descendant", ast.NodeTest("name", label))


def _rewrite_child(
    step: ast.Step, current: list[VType], from_document: bool
) -> tuple[list[VType], list[ast.Step]]:
    if from_document:
        matched = [v for v in current if type_matches(v, step.test, step.axis)]
        if not matched:
            return [], []
        return matched, [_down_step(matched, step.test, step.axis)]
    matched = [
        child
        for vtype in current
        for child in vtype.children
        if type_matches(child, step.test, step.axis)
    ]
    if not matched:
        return [], []
    inversions = [c for c in matched if c.lca_length == c.original.length]
    if inversions and len(inversions) != len(matched):
        raise RewriteError("mixed inversion/descent edges need a union rewrite")
    if inversions:
        # Case 2: the virtual child is an original *ancestor* — physically
        # a pure upward step.
        label = _single_label(matched)
        return matched, [ast.Step("ancestor-or-self", ast.NodeTest("name", label))]
    lca_lengths = {child.lca_length for child in matched}
    up_labels = {child.original.path[child.lca_length - 1] for child in matched}
    if len(lca_lengths) != 1 or len(up_labels) != 1:
        raise RewriteError("heterogeneous lca edges need a union rewrite")
    up = ast.Step("ancestor-or-self", ast.NodeTest("name", up_labels.pop()))
    return matched, [up, _down_step(matched, step.test, step.axis)]


def _rewrite_descendant(
    step: ast.Step, current: list[VType], vguide: VGuide, from_document: bool
) -> tuple[list[VType], list[ast.Step]]:
    if from_document:
        pool = list(vguide.iter_vtypes())
    else:
        pool = [
            descendant
            for vtype in current
            for descendant in vtype.iter_subtree()
            if descendant is not vtype
        ]
    matched = [v for v in pool if type_matches(v, step.test, step.axis)]
    if not matched:
        return [], []
    if from_document:
        return matched, [_down_step(matched, step.test, step.axis)]
    # Up to the outermost lca of any matched edge chain, then down.  For
    # the common single-chain case the first hop's lca anchors the scan.
    anchors = {
        (chain_top.lca_length, chain_top.original.path[chain_top.lca_length - 1])
        for chain_top in _chain_tops(matched, current)
    }
    if len(anchors) != 1:
        raise RewriteError("heterogeneous descendant chains need a union rewrite")
    _, label = anchors.pop()
    up = ast.Step("ancestor-or-self", ast.NodeTest("name", label))
    return matched, [up, _down_step(matched, step.test, step.axis)]


def _chain_tops(matched: list[VType], current: list[VType]) -> list[VType]:
    """For each matched descendant type, the first edge below a current
    type on its chain (whose lca anchors the physical scan)."""
    current_set = set(map(id, current))
    tops = []
    for vtype in matched:
        walker = vtype
        while walker.parent is not None and id(walker.parent) not in current_set:
            walker = walker.parent
        tops.append(walker)
    return tops
