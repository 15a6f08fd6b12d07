"""Abstract syntax of the query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class Expr:
    """Base class of every expression node."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A string or numeric literal."""

    value: Union[str, float, int]


@dataclass(frozen=True)
class VarRef(Expr):
    """A ``$name`` reference."""

    name: str


@dataclass(frozen=True)
class ContextItem(Expr):
    """The ``.`` expression."""


@dataclass(frozen=True)
class SequenceExpr(Expr):
    """Comma operator: concatenation of item sequences."""

    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; ``fn:`` prefixes are stripped by the parser."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class NodeTest:
    """A node test in a step.

    :ivar kind: ``name`` (match by label), ``wildcard`` (``*``),
        ``text`` (``text()``), or ``node`` (``node()``).
    :ivar name: the label for ``name`` tests.
    """

    kind: str
    name: str = ""


@dataclass(frozen=True)
class Step:
    """One path step: axis, node test, and predicates."""

    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class PathExpr(Expr):
    """A path: an optional start expression followed by steps.

    ``start`` is ``None`` for a relative path (steps apply to the context
    item).  An absolute path (``/a`` or ``//a``) uses the :class:`RootExpr`
    start.  A leading ``//`` becomes an explicit descendant-or-self step.
    """

    start: Optional[Expr]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class RootExpr(Expr):
    """The document root of the context item (leading ``/``)."""


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression with predicates, e.g. ``$seq[2]``."""

    base: Expr
    predicates: tuple[Expr, ...]


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operators: comparisons, arithmetic, ``and``/``or``,
    ``|``/``union``, ``except``, ``intersect``, ``to``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus/plus."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class ForClause:
    """``for $var [at $pos] in expr`` (one binding of a for clause)."""

    var: str
    expr: Expr
    position_var: Optional[str] = None


@dataclass(frozen=True)
class LetClause:
    """``let $var := expr``."""

    var: str
    expr: Expr


@dataclass(frozen=True)
class OrderSpec:
    """One ``order by`` key."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class FLWRExpr(Expr):
    """A FLWR block: clauses, optional where / order by, and return."""

    clauses: tuple[Union[ForClause, LetClause], ...]
    where: Optional[Expr]
    order_by: tuple[OrderSpec, ...]
    return_expr: Expr


@dataclass(frozen=True)
class IfExpr(Expr):
    """``if (cond) then a else b``."""

    condition: Expr
    then_expr: Expr
    else_expr: Expr


@dataclass(frozen=True)
class QuantifiedExpr(Expr):
    """``some/every $var in expr satisfies cond``."""

    quantifier: str  # "some" | "every"
    var: str
    expr: Expr
    condition: Expr


@dataclass(frozen=True)
class AttributeTemplate:
    """A constructor attribute: literal text parts and embedded
    expressions, e.g. ``id="{ $n }-x"``."""

    name: str
    parts: tuple[Union[str, Expr], ...]


@dataclass(frozen=True)
class ElementConstructor(Expr):
    """A direct element constructor ``<tag a="...">content</tag>``.

    Content parts are static text, embedded ``{ expr }`` blocks, or nested
    constructors.
    """

    tag: str
    attributes: tuple[AttributeTemplate, ...] = ()
    content: tuple[Union[str, Expr, "ElementConstructor"], ...] = field(default=())


def subexpressions(node) -> list:
    """The expressions and steps directly under ``node``, left to right,
    looking through the clause, order-spec and attribute-template records
    that hold them.  The walks over a plan (source analysis, planner
    annotations) iterate with it on an explicit stack, so no operator
    chain is too long for them."""
    found: list = []
    for name in _CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if type(value) is tuple:
            for item in value:
                if isinstance(item, (Expr, Step)):
                    found.append(item)
                elif type(item) is not str:
                    found.extend(subexpressions(item))
        elif value is not None:
            found.append(value)
    return found


#: node class -> the fields that hold its subexpressions, in source order.
_CHILD_FIELDS = {
    Literal: (),
    VarRef: (),
    ContextItem: (),
    RootExpr: (),
    SequenceExpr: ("exprs",),
    FuncCall: ("args",),
    Step: ("predicates",),
    PathExpr: ("start", "steps"),
    FilterExpr: ("base", "predicates"),
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    ForClause: ("expr",),
    LetClause: ("expr",),
    OrderSpec: ("expr",),
    FLWRExpr: ("clauses", "where", "order_by", "return_expr"),
    IfExpr: ("condition", "then_expr", "else_expr"),
    QuantifiedExpr: ("expr", "condition"),
    AttributeTemplate: ("parts",),
    ElementConstructor: ("attributes", "content"),
}
