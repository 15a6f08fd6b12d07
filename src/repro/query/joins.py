"""Structural merge-join kernels over columnar PBN keys.

Each kernel answers one axis for a whole *context set* against one
:class:`~repro.pbn.columnar.Column` (a type's keys in document order),
returning row indexes into the column.  The per-pair predicate loop the
navigators otherwise run is O(candidates x contexts); these are
O((contexts + output) * log candidates) bisect compositions built on three
facts about sorted Dewey keys:

* a subtree is one contiguous run — ``[key, key + (inf,))``;
* within one type's column every key has the same width, so no column key
  is a proper prefix of another;
* the union of ``following`` sets is a suffix of the column and the union
  of ``preceding`` sets is a prefix of it minus at most one ancestor row.

The kernels are pure (no stats, no node materialization); the navigator
translates rows to nodes and does the counting.  A batch of prefix runs
is :meth:`~repro.pbn.columnar.Column.prefix_runs` itself (one
packed-domain sweep on an encoded column).  Everything here is
fraction-safe: bounds come from :func:`~repro.pbn.columnar.subtree_bound`,
never from ``last component + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.pbn.columnar import Column, Key, subtree_bound
from repro.query import ast as qast
from repro.xmlmodel.nodes import TEXT_NAME


def staircase(keys: Sequence[Key]) -> list[Key]:
    """Drop keys that extend an earlier key (input sorted ascending).

    The survivors' subtrees are pairwise disjoint and cover the union of
    all input subtrees — the classic stack-based ancestor-descendant
    staircase, collapsed to a single comparison per key because a kept
    key's extensions follow it contiguously in sorted order.
    """
    kept: list[Key] = []
    for key in keys:
        if kept:
            top = kept[-1]
            if key[: len(top)] == top:
                continue
        kept.append(key)
    return kept


def fold_runs(runs, kind: str, cas_columns):
    """``(value, rows)`` of ``count`` / ``sum`` over ``(owner, low, high)``
    row runs that cover a step's result exactly once: a count adds up run
    lengths, a sum folds each run through ``cas_columns(owner)``'s prefix
    sums (:meth:`~repro.storage.cas_index.CasColumns.sum_over`).  Returns
    :data:`INEXACT_SUM` when some run's values cannot be added exactly."""
    rows = sum(high - low for _, low, high in runs)
    if kind == "count":
        return rows, rows
    if rows == 0:
        return 0, 0
    total = 0
    nan = False
    for owner, low, high in runs:
        if low == high:
            continue
        columns = cas_columns(owner)
        part = columns.sum_over(low, high) if columns is not None else None
        if part is None:
            return INEXACT_SUM
        if part != part:  # a NaN-poisoned run: the whole sum is NaN
            nan = True
        else:
            total += part
    return (float("nan") if nan else total), rows


def following_start(column: Column, context_keys: Sequence[Key]) -> int:
    """First row of the ``following``-union suffix: a key follows *some*
    context key iff it sorts at or after the smallest context subtree
    bound (after a subtree means after the key and outside its subtree)."""
    bound = min(subtree_bound(key) for key in context_keys)
    return column.lower(bound)


def preceding_bounds(
    column: Column, context_keys: Sequence[Key]
) -> tuple[int, int]:
    """The ``preceding``-union prefix of the column as ``(upto,
    exclude_row)``: rows ``[0, upto)`` qualify except ``exclude_row``
    (``-1`` when none).

    A key x precedes some context key iff ``x < max_context`` and x is
    not a prefix of ``max_context`` (smaller contexts add nothing: any x
    preceding them also precedes the maximum, and an x preceding some y
    while prefixing the maximum would have to follow its own subtree).
    Fixed width means the column holds at most *one* prefix of the
    maximum — the single excluded row.
    """
    bound = max(context_keys)
    upto = column.lower(bound)
    exclude = -1
    width = column.width
    if 0 < width <= len(bound):
        exclude = column.row_of(bound[:width])
        if exclude >= upto:
            exclude = -1
    return upto, exclude


# ---------------------------------------------------------------------------
# node tests on types
# ---------------------------------------------------------------------------


def type_matches(node_type, test: qast.NodeTest, axis: str) -> bool:
    """Whether the nodes of ``node_type`` — a DataGuide type or a virtual
    type, anything with ``name`` / ``is_attribute`` / ``is_text`` — pass
    ``test`` on ``axis``: attributes are reached by the ``attribute``
    axis alone, which reaches nothing else."""
    name = node_type.name
    if axis == "attribute":
        if not node_type.is_attribute:
            return False
        return test.kind in ("node", "wildcard") or (
            test.kind == "name" and name == "@" + test.name
        )
    if node_type.is_attribute:
        return False
    if test.kind == "node":
        return True
    if test.kind == "text":
        return name == TEXT_NAME
    is_element = not node_type.is_text
    if test.kind == "wildcard":
        return is_element
    return is_element and name == test.name


# ---------------------------------------------------------------------------
# value-predicate compilation (the content half of the CAS kernel)
# ---------------------------------------------------------------------------

#: Axes whose batch kernels take a key filter: their
#: candidates are column runs, so value predicates drop rows by key
#: before any node is resolved.
KEYS_FIRST_AXES = frozenset(
    ("child", "attribute", "descendant", "descendant-or-self")
)

#: Why the navigator's batch kernel hands a step back to the scalar loop —
#: ``step_many`` / ``aggregate_many`` return one of these ``str`` in place
#: of a result: no kernel covers the axis; a sum over values that prefix
#: sums cannot add exactly; a lone document's aggregate whose result types
#: have instances outside the virtual document (no whole-column bounds).
NO_KERNEL = "axis"
INEXACT_SUM = "inexact-sum"
NO_BOUNDS = "document-context"

#: Comparison operators a CAS value range scan can answer (each maps to at
#: most two contiguous runs over a value-sorted projection).
_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))

#: The operator with its operands swapped, so ``5 > child::price`` compiles
#: to the same normal form as ``child::price < 5``.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class ValuePredicate:
    """A compiled single-comparison value predicate, normalized so the node
    value sits on the left: ``<path> <op> <constant>``, existential over
    the nodes the path reaches below the candidate.

    :ivar op: one of :data:`_COMPARISONS`.
    :ivar constant: the literal's python value (``str``/``int``/``float``;
        never ``bool`` — :func:`compile_value_predicate` declines those).
    :ivar axis: the first step below the candidate — ``child`` /
        ``attribute`` / ``descendant`` — or ``self`` for ``. op c``, the
        empty path.
    :ivar test: the first step's node test; ``None`` for ``self``.
    :ivar rest: the ``(axis, test)`` steps after the first.
    """

    op: str
    constant: object
    axis: str = "self"
    test: Optional[qast.NodeTest] = None
    rest: tuple = ()

    @property
    def path(self) -> tuple:
        """The whole relative path as ``(axis, test)`` steps, top down;
        empty when the compared value is the candidate's own."""
        if self.axis == "self":
            return ()
        return ((self.axis, self.test), *self.rest)


#: Axes a predicate path may descend by (``descendant`` is what ``//``
#: fuses to); every one resolves to a chain of types on the (v)DataGuide.
_PATH_AXES = frozenset(("child", "attribute", "descendant"))


def _comparison_path(expr: qast.Expr) -> Optional[tuple]:
    """The value side of a comparison as ``(axis, test)`` steps below the
    candidate, or ``None`` when it is not CAS-indexable.  Indexable: the
    context item itself (the empty path) and downward relative paths of
    predicate-free ``child`` / ``attribute`` / ``descendant`` steps with
    name, ``text()`` or ``*`` tests — the shapes whose result is decided
    by the types on the way down, so the leaf types' CAS columns cover
    every compared value."""
    if isinstance(expr, qast.ContextItem):
        return ()
    if not isinstance(expr, qast.PathExpr) or not (
        expr.start is None or isinstance(expr.start, qast.ContextItem)
    ):
        return None
    from repro.query.eval import _fuse_descendant_steps

    path = []
    for step in _fuse_descendant_steps(expr.steps):
        if (
            step.axis not in _PATH_AXES
            or step.predicates
            or step.test.kind not in ("name", "text", "wildcard")
        ):
            return None
        path.append((step.axis, step.test))
    return tuple(path)


def compile_value_predicate(expr: qast.Expr) -> Optional[ValuePredicate]:
    """Compile a predicate expression to a :class:`ValuePredicate`, or
    return ``None`` for anything the CAS kernel cannot answer (the caller
    then declines to the scalar loop, which defines the semantics).

    Compilable: one comparison between an indexable path (see
    :func:`_comparison_path`) and a string/number literal, either way
    around.  Coercion is *not* decided here — the CAS columns replay
    ``_compare_pair``'s both-sides-numeric rule per value at scan time.
    """
    if not isinstance(expr, qast.BinaryOp) or expr.op not in _COMPARISONS:
        return None
    if isinstance(expr.right, qast.Literal):
        path = _comparison_path(expr.left)
        op, literal = expr.op, expr.right
    elif isinstance(expr.left, qast.Literal):
        path = _comparison_path(expr.right)
        op, literal = _FLIPPED[expr.op], expr.left
    else:
        return None
    if path is None:
        return None
    value = literal.value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        return None
    if not path:
        return ValuePredicate(op, value)
    return ValuePredicate(op, value, *path[0], path[1:])
