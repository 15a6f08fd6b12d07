"""In-memory XML node classes.

The model follows the paper's data model: a document holds a forest (usually
a single tree) of elements; elements hold attributes, text nodes, and child
elements.  Attributes are modeled as ordinary child nodes that sort before
element and text children so they participate in prefix-based numbering and
DataGuide typing just like the paper's Figure 7 types do.  A text node's
"name" is the sentinel :data:`TEXT_NAME` (the paper writes it as a small
circle).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Optional

#: DataGuide label used for text nodes (the paper renders it as "◦").
TEXT_NAME = "#text"


class NodeKind(Enum):
    """Kinds of nodes the data model supports."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


class Node:
    """Base class of every node in a document tree.

    :ivar parent: the parent node, or ``None`` for a document root.
    :ivar pbn: the node's prefix-based number, assigned by
        :func:`repro.pbn.assign.assign_numbers` or by a store's indexing
        walk (:func:`repro.storage.store.index_tree`); ``None`` until
        assigned.
    """

    __slots__ = ("parent", "pbn")

    kind: NodeKind

    def __init__(self) -> None:
        self.parent: Optional[Node] = None
        self.pbn = None  # type: ignore[assignment]  # set by pbn.assign

    # -- structure ---------------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        """Child nodes in sibling order (empty for leaves)."""
        return []

    @property
    def name(self) -> str:
        """DataGuide label of this node (tag name, ``@attr``, or ``#text``)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Level of this node; a document root's children are at level 1."""
        level = 0
        node = self
        while node.parent is not None:
            level += 1
            node = node.parent
        return level

    def path_names(self) -> list[str]:
        """Labels on the path from (and excluding) the document to this node."""
        names: list[str] = []
        node: Optional[Node] = self
        while node is not None and node.kind is not NodeKind.DOCUMENT:
            names.append(node.name)
            node = node.parent
        names.reverse()
        return names

    def iter_subtree(self) -> Iterator["Node"]:
        """Yield this node and every descendant in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_ancestors(self) -> Iterator["Node"]:
        """Yield proper ancestors from the parent up to the document."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- values ------------------------------------------------------------

    def string_value(self) -> str:
        """Concatenation of all text content in the subtree (XPath string value)."""
        parts = [
            n.value  # type: ignore[attr-defined]
            for n in self.iter_subtree()
            if n.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE)
        ]
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = getattr(self, "name", "?")
        return f"<{type(self).__name__} {label} pbn={self.pbn}>"


class Document(Node):
    """A document: a named container for a forest of root elements.

    :param uri: the document's identifier, used by ``doc()``/``virtualDoc()``.
    :ivar lineage: a token every version derived from this document by an
        update shares (:mod:`repro.updates.mutations`).  Versions share
        the nodes an update did not touch, so a ``parent`` walk from a
        stored node ends at *some* version's document; an engine maps the
        lineage to the one version it holds.
    """

    __slots__ = ("uri", "_children", "lineage")

    kind = NodeKind.DOCUMENT

    def __init__(self, uri: str = "") -> None:
        super().__init__()
        self.uri = uri
        self._children: list[Node] = []
        self.lineage = object()

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def name(self) -> str:
        return self.uri

    @property
    def root(self) -> Optional["Element"]:
        """The first root element, or ``None`` for an empty document."""
        for child in self._children:
            if child.kind is NodeKind.ELEMENT:
                return child  # type: ignore[return-value]
        return None

    def append(self, node: Node) -> Node:
        """Attach ``node`` as the last root of the forest and return it."""
        node.parent = self
        self._children.append(node)
        return node


class Element(Node):
    """An element node with a tag name, attributes, and ordered children.

    Attribute nodes are kept inside :attr:`children` (before any element or
    text child) so numbering and typing treat them uniformly; the
    :attr:`attributes` view filters them back out for convenience.
    """

    __slots__ = ("tag", "_children")

    kind = NodeKind.ELEMENT

    def __init__(self, tag: str) -> None:
        super().__init__()
        if not tag:
            raise ValueError("element tag must be non-empty")
        self.tag = tag
        self._children: list[Node] = []

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def name(self) -> str:
        return self.tag

    @property
    def attributes(self) -> list["Attribute"]:
        """The element's attribute nodes, in definition order."""
        return [c for c in self._children if c.kind is NodeKind.ATTRIBUTE]  # type: ignore[misc]

    def get_attribute(self, name: str) -> Optional[str]:
        """Value of attribute ``name`` (without the ``@``), or ``None``."""
        for child in self._children:
            if child.kind is NodeKind.ATTRIBUTE and child.attr_name == name:  # type: ignore[attr-defined]
                return child.value  # type: ignore[attr-defined]
        return None

    def append(self, node: Node) -> Node:
        """Attach ``node`` as the last child and return it.

        Attribute nodes are inserted after existing attributes but before
        the first non-attribute child, preserving the invariant that
        attributes lead the sibling order.
        """
        node.parent = self
        if node.kind is NodeKind.ATTRIBUTE:
            index = 0
            while (
                index < len(self._children)
                and self._children[index].kind is NodeKind.ATTRIBUTE
            ):
                index += 1
            self._children.insert(index, node)
        else:
            self._children.append(node)
        return node

    def text(self) -> str:
        """Concatenated immediate text-child content."""
        return "".join(
            c.value for c in self._children if c.kind is NodeKind.TEXT  # type: ignore[attr-defined]
        )


class Attribute(Node):
    """An attribute node.  Its DataGuide label is ``@name``."""

    __slots__ = ("attr_name", "value")

    kind = NodeKind.ATTRIBUTE

    def __init__(self, name: str, value: str) -> None:
        super().__init__()
        if not name:
            raise ValueError("attribute name must be non-empty")
        self.attr_name = name
        self.value = value

    @property
    def name(self) -> str:
        return "@" + self.attr_name

    def string_value(self) -> str:
        return self.value


class Text(Node):
    """A text node.  Its DataGuide label is :data:`TEXT_NAME`."""

    __slots__ = ("value",)

    kind = NodeKind.TEXT

    def __init__(self, value: str) -> None:
        super().__init__()
        self.value = value

    @property
    def name(self) -> str:
        return TEXT_NAME

    def string_value(self) -> str:
        return self.value
