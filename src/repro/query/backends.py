"""Execution-backend registry: the strategy dispatch behind the evaluator.

Each mode (``tree`` / ``indexed`` / ``sql``) is a :class:`Backend` the
evaluator consults at the two navigation seams:

* :meth:`Backend.apply_step` — first crack at a *whole* step (axis, test,
  predicates) over the full context set; returning a list short-circuits
  the per-item loop with the step's final form (deduplicated, document
  order).  ``None`` declines.
* :meth:`Backend.step` / :meth:`Backend.virtual_step` — one context
  item's axis candidates in axis order, or ``None`` to fall through to
  the shared tree / virtual navigators.

Declining is always sound: the tree navigator (stored nodes) and the
virtual navigator (virtual items) define the semantics every backend
must reproduce byte-for-byte — that contract is what the differential
suites pin down.  ``apply_step`` is the ``sql`` entry of the evaluator's
kernel table (``Evaluator._route``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QueryEvaluationError
from repro.xmlmodel.nodes import Node


class Backend:
    """Default backend behavior: decline everything.  The ``tree`` and
    ``indexed`` strategies are this backend — their steps are the
    navigators' (``indexed`` lifts stored items into their store's
    identity view, see ``Evaluator._context_set``)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def step(self, evaluator, item, axis: str, test) -> Optional[list]:
        return None

    def virtual_step(self, evaluator, item, axis: str, test) -> Optional[list]:
        return None

    def apply_step(self, evaluator, items: list, step, context) -> Optional[list]:
        return None


class SqlBackend(Backend):
    """Relational evaluation over the engine's SQLite accel tables (see
    :mod:`repro.query.sqlbackend`)."""

    def step(self, evaluator, item, axis: str, test) -> Optional[list]:
        if isinstance(item, Node):
            store = evaluator.engine.store_of(item)
            if store is not None:
                return evaluator.engine.sql_accel(store).step(item, axis, test)
        return None

    def virtual_step(self, evaluator, item, axis: str, test) -> Optional[list]:
        from repro.core.virtual_document import VNode
        from repro.query.items import VirtualDocItem

        if isinstance(item, VirtualDocItem):
            vdoc = item.vdoc
        elif isinstance(item, VNode):
            vdoc = item._vdoc
            if vdoc is None:
                return None
            if axis == "parent" and item.vtype.parent is None:
                # Mirror the navigator: the parent of a virtual root is
                # the virtual document node.
                return [VirtualDocItem(vdoc)] if test.kind == "node" else []
        else:
            return None
        return evaluator.engine.sql_virtual_accel(vdoc).step(item, axis, test)

    def apply_step(self, evaluator, items: list, step, context) -> Optional[list]:
        from repro.core.virtual_document import VNode
        from repro.query.items import VirtualDocItem

        first = items[0]
        if isinstance(first, Node):
            store = evaluator.engine.store_of(first)
            if store is None:
                return None
            for item in items:
                if not isinstance(item, Node) or evaluator.engine.store_of(
                    item
                ) is not store:
                    return None
            return evaluator.engine.sql_accel(store).apply_step(items, step)
        if isinstance(first, (VNode, VirtualDocItem)) and not step.predicates:
            vdoc = first.vdoc if isinstance(first, VirtualDocItem) else first._vdoc
            if vdoc is None or not (
                len(items) == 1
                or all(isinstance(item, VNode) and item._vdoc is vdoc for item in items)
            ):
                return None
            accel = evaluator.engine.sql_virtual_accel(vdoc)
            if len(items) > 1:
                # Batched context loading: one prefix join over a scratch
                # context table answers the whole step in document order.
                batched = accel.step_many(items, step.axis, step.test)
                if batched is not None:
                    return batched
            out: list = []
            for item in items:
                stepped = self.virtual_step(evaluator, item, step.axis, step.test)
                if stepped is None:
                    return None
                out.extend(stepped)
            return evaluator.step_result(len(items), step.axis, out)
        return None


_BACKENDS = {
    "tree": Backend("tree"),
    "indexed": Backend("indexed"),
    "sql": SqlBackend("sql"),
}

#: The registered evaluation modes, in documentation order.
MODES = ("indexed", "tree", "sql")


def resolve_backend(mode: str) -> Backend:
    backend = _BACKENDS.get(mode)
    if backend is None:
        raise QueryEvaluationError(f"unknown evaluation mode {mode!r}")
    return backend
