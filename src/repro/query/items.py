"""The query data model: items, sequences, and common item operations.

A query value is a Python list (*sequence*) of items.  An item is one of:

* an atomic value — ``str``, ``int``, ``float``, or ``bool``;
* a tree node — any :class:`repro.xmlmodel.nodes.Node`, including
  :class:`Document` handles returned by ``doc()`` and elements built by
  constructors;
* a virtual node — :class:`repro.core.virtual_document.VNode`;
* a virtual document handle — :class:`VirtualDocItem`, returned by
  ``virtualDoc()``;
* a node that crossed a process boundary as text — :class:`RemoteItem`
  (only in results merged from process shard workers).
"""

from __future__ import annotations

from typing import Any, Union

from repro.core.values import ValueStats, is_intact, write, write_batch
from repro.core.virtual_document import VirtualDocument, VNode
from repro.errors import QueryEvaluationError
from repro.obs.trace import span
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xmlmodel.serializer import serialize

Atomic = Union[str, int, float, bool]
Item = Any  # Atomic | Node | VNode | VirtualDocItem | RemoteItem
Sequence = list


class VirtualDocItem:
    """The document handle ``virtualDoc(uri, spec)`` evaluates to."""

    __slots__ = ("vdoc",)

    def __init__(self, vdoc: VirtualDocument) -> None:
        self.vdoc = vdoc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualDocItem({self.vdoc.document.uri})"


class RemoteItem:
    """A node materialized in a shard worker process, shipped as its
    serialized XML plus its XPath string value."""

    __slots__ = ("xml", "value")

    def __init__(self, xml: str, value: str) -> None:
        self.xml = xml
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteItem({self.xml[:40]!r})"


def is_node(item: Item) -> bool:
    """True for tree nodes, virtual nodes, and document handles."""
    return isinstance(item, (Node, VNode, VirtualDocItem))


def kind_of(item: Item) -> NodeKind:
    """Node kind of a node item."""
    if isinstance(item, Node):
        return item.kind
    if isinstance(item, VNode):
        return item.node.kind
    if isinstance(item, VirtualDocItem):
        return NodeKind.DOCUMENT
    raise QueryEvaluationError(f"{item!r} is not a node")


def name_of(item: Item) -> str:
    """Node name (tag, ``@attr``, ``#text``, or document URI)."""
    if isinstance(item, Node):
        return item.name
    if isinstance(item, VNode):
        return item.node.name
    if isinstance(item, VirtualDocItem):
        return item.vdoc.document.uri
    raise QueryEvaluationError(f"{item!r} is not a node")


def string_value(item: Item) -> str:
    """XPath string value.

    For a virtual node this is the text of its *virtual* subtree — the
    transformed value, not the original one (paper Section 6).
    """
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, (int, float)):
        return format_number(item)
    if isinstance(item, str):
        return item
    if isinstance(item, Node):
        return item.string_value()
    if isinstance(item, VNode):
        return _virtual_string_value(item)
    if isinstance(item, VirtualDocItem):
        return "".join(
            _virtual_string_value(root, item.vdoc) for root in item.vdoc.roots()
        )
    if isinstance(item, RemoteItem):
        return item.value
    raise QueryEvaluationError(f"cannot take the string value of {item!r}")


def _virtual_string_value(vnode: VNode, vdoc: VirtualDocument | None = None) -> str:
    node = vnode.node
    if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
        return node.value  # type: ignore[attr-defined]
    if vdoc is None:
        vdoc = _require_vdoc(vnode)
    if is_intact(vdoc, vnode.vtype):
        return node.string_value()  # the virtual subtree is the original one
    return "".join(
        _virtual_string_value(child, vdoc) for child in vdoc.children(vnode)
    )


def write_item(item: Item, parts: list[str], stats: ValueStats) -> None:
    """Append one result item's XML text to ``parts`` — the only place an
    item becomes XML: stored and constructed nodes through the
    serializer, virtual nodes as their transformed values (a
    ``virtualDoc()`` handle writes its roots in virtual root order, the
    way ``doc()`` writes its children: one batch per root type), atomics
    via the XPath rules."""
    if isinstance(item, Node):
        parts.append(serialize(item))
    elif isinstance(item, VNode):
        write(item, parts, stats)
    elif isinstance(item, VirtualDocItem):
        vdoc = item.vdoc
        for root_vtype in vdoc.vguide.roots:
            write_batch(vdoc.instances(root_vtype), parts, stats, vdoc)
    elif isinstance(item, RemoteItem):
        parts.append(item.xml)
    else:
        parts.append(format_atomic(item))


def items_to_xml(items: Sequence) -> str:
    """The XML text of a result sequence: each maximal run of consecutive
    virtual nodes of one type and view is one :func:`write_batch`, every
    other item goes through :func:`write_item`.  Under an active trace
    the work shows as a ``result.to_xml`` span carrying the writer's
    counters."""
    parts: list[str] = []
    stats = ValueStats()
    with span("result.to_xml") as to_xml_span:
        run: list = []
        for item in items:
            if isinstance(item, VNode):
                if run and (item.vtype is not run[0].vtype or item._vdoc is not run[0]._vdoc):
                    write_batch(run, parts, stats)
                    run = []
                run.append(item)
                continue
            if run:
                write_batch(run, parts, stats)
                run = []
            if isinstance(item, Node):  # a stored answer: write_item's first case, inline
                parts.append(serialize(item))
            else:
                write_item(item, parts, stats)
        if run:
            write_batch(run, parts, stats)
        text = "".join(parts)
        to_xml_span.set("spliced_ranges", stats.spliced_ranges)
        to_xml_span.set("constructed_elements", stats.constructed_elements)
        to_xml_span.set("batches", stats.batches)
        to_xml_span.set("bytes", len(text))
    return text


def atomize(sequence: Sequence) -> list[Atomic]:
    """Atomize a sequence: nodes become their string values."""
    return [
        string_value(item) if is_node(item) else item
        for item in sequence
    ]


def format_atomic(value: Atomic) -> str:
    """Render an atomic for serialization."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    return str(value)


def format_number(value: Union[int, float]) -> str:
    """XPath-style number formatting: integers print without a point."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_number(value: Atomic) -> float:
    """Cast an atomic to a number (NaN on failure, like XPath)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value.strip())
    except (ValueError, AttributeError):
        return float("nan")


def effective_boolean(sequence: Sequence) -> bool:
    """XPath effective boolean value.

    :raises QueryEvaluationError: for sequences of several atomic values.
    """
    if not sequence:
        return False
    first = sequence[0]
    if is_node(first):
        return True
    if len(sequence) > 1:
        raise QueryEvaluationError(
            "effective boolean value of a multi-item atomic sequence"
        )
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return first != 0 and first == first
    if isinstance(first, str):
        return bool(first)
    raise QueryEvaluationError(f"no effective boolean value for {first!r}")


# -- helpers shared by navigators ------------------------------------------------


def _require_vdoc(vnode: VNode) -> VirtualDocument:
    vdoc = getattr(vnode, "_vdoc", None)
    if vdoc is None:
        raise QueryEvaluationError(
            "virtual node is not attached to a virtual document"
        )
    return vdoc
