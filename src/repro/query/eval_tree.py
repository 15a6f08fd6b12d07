"""Navigational (pointer-chasing) axis evaluation over tree nodes.

This is the baseline strategy — and the only one available for nodes that
are not backed by a store, such as elements built by constructors mid-query.
It also defines :func:`matches_test`, the node-test semantics every
navigator shares.

XPath attribute-axis conventions are preserved even though the data model
keeps attributes in the child list: attributes are reachable *only* through
the ``attribute`` axis, never via ``child``/``descendant``/sibling axes.
"""

from __future__ import annotations

from repro.obs.trace import span_add
from repro.query.ast import NodeTest
from repro.xmlmodel.nodes import Node, NodeKind


def matches_test(kind: NodeKind, name: str, test: NodeTest, axis: str) -> bool:
    """Shared node-test semantics.

    The principal node kind is ``ATTRIBUTE`` for the attribute axis and
    ``ELEMENT`` otherwise; ``name`` is compared without the ``@`` prefix
    attribute labels carry.
    """
    if axis == "attribute":
        if kind is not NodeKind.ATTRIBUTE:
            return False
        if test.kind in ("node", "wildcard"):
            return True
        return test.kind == "name" and name == "@" + test.name
    if kind is NodeKind.ATTRIBUTE:
        return False
    if test.kind == "node":
        return True
    if test.kind == "text":
        return kind is NodeKind.TEXT
    if test.kind == "wildcard":
        return kind is NodeKind.ELEMENT
    return kind is NodeKind.ELEMENT and name == test.name


def _pointer_parent(node: Node):
    return node.parent


class TreeNavigator:
    """Axis steps by walking child pointers — and parents by number for a
    stored node (its ``parent`` pointer may lead into another version of
    its document), by pointer for a node of no store."""

    def step(self, node: Node, axis: str, test: NodeTest, store=None) -> list[Node]:
        """Nodes on ``axis`` of ``node`` that satisfy ``test``, in axis
        order (document order; reversed for the reverse axes).
        ``store``: the version ``node`` is read in, ``None`` for a node
        that belongs to no store (constructed, parser output)."""
        span_add("steps.tree")
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        parent_of = _pointer_parent if store is None else store.parent_of
        return [
            candidate
            for candidate in handler(node, parent_of)
            if matches_test(candidate.kind, candidate.name, test, axis)
        ]

    # -- axis generators, in axis order ------------------------------------------

    def _axis_self(self, node: Node, parent_of):
        yield node

    def _axis_child(self, node: Node, parent_of):
        for child in node.children:
            if child.kind is not NodeKind.ATTRIBUTE:
                yield child

    def _axis_attribute(self, node: Node, parent_of):
        for child in node.children:
            if child.kind is NodeKind.ATTRIBUTE:
                yield child

    def _axis_parent(self, node: Node, parent_of):
        parent = parent_of(node)
        if parent is not None:
            yield parent

    def _axis_ancestor(self, node: Node, parent_of):
        # Reverse axis: nearest ancestor first.
        node = parent_of(node)
        while node is not None:
            yield node
            node = parent_of(node)

    def _axis_ancestor_or_self(self, node: Node, parent_of):
        yield node
        yield from self._axis_ancestor(node, parent_of)

    def _axis_descendant(self, node: Node, parent_of):
        yield from self._descend(node)

    def _axis_descendant_or_self(self, node: Node, parent_of):
        yield node
        yield from self._descend(node)

    def _descend(self, node: Node):
        stack = [
            child
            for child in reversed(node.children)
            if child.kind is not NodeKind.ATTRIBUTE
        ]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(
                child
                for child in reversed(current.children)
                if child.kind is not NodeKind.ATTRIBUTE
            )

    def _siblings(self, node: Node, parent_of):
        parent = parent_of(node)
        if parent is None or node.kind is NodeKind.ATTRIBUTE:
            return [], -1
        siblings = [
            child
            for child in parent.children
            if child.kind is not NodeKind.ATTRIBUTE
        ]
        return siblings, siblings.index(node)

    def _axis_following_sibling(self, node: Node, parent_of):
        siblings, index = self._siblings(node, parent_of)
        yield from siblings[index + 1 :]

    def _axis_preceding_sibling(self, node: Node, parent_of):
        # Reverse axis: nearest sibling first.
        siblings, index = self._siblings(node, parent_of)
        if index > 0:
            yield from reversed(siblings[:index])

    def _axis_following(self, node: Node, parent_of):
        current = node
        parent = parent_of(node)
        if node.kind is NodeKind.ATTRIBUTE and parent is not None:
            # Document order places an attribute after its element's start
            # but before the element's content, so the owner's subtree
            # follows the attribute (the owner itself is an ancestor).
            current = parent
            yield from self._descend(current)
            parent = parent_of(current)
        while parent is not None:
            for sibling in self._axis_following_sibling(current, parent_of):
                yield sibling
                yield from self._descend(sibling)
            current, parent = parent, parent_of(parent)

    def _axis_preceding(self, node: Node, parent_of):
        # Reverse axis: nearest preceding node first.
        current = node
        parent = parent_of(node)
        while parent is not None:
            for sibling in self._axis_preceding_sibling(current, parent_of):
                subtree = [sibling, *self._descend(sibling)]
                yield from reversed(subtree)
            current, parent = parent, parent_of(parent)
