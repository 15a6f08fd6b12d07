"""The query data model: items, sequences, and common item operations.

A query value is a Python list (*sequence*) of items.  An item is one of:

* an atomic value — ``str``, ``int``, ``float``, or ``bool``;
* a tree node — any :class:`repro.xmlmodel.nodes.Node`, including
  :class:`Document` handles returned by ``doc()`` and elements built by
  constructors;
* a virtual node — :class:`repro.core.virtual_document.VNode`;
* a virtual document handle — :class:`VirtualDocItem`, returned by
  ``virtualDoc()``;
* a constructed element not built yet — :class:`Constructed`, what an
  element constructor evaluates to: written as it stands, settled into
  an :class:`~repro.xmlmodel.nodes.Element` only where something
  navigates into it.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.core.values import ValueStats, is_intact, write, write_batch
from repro.core.virtual_document import VirtualDocument, VNode
from repro.errors import QueryEvaluationError
from repro.obs.trace import span
from repro.xmlmodel.builder import clone_subtree
from repro.xmlmodel.nodes import Attribute, Element, Node, NodeKind, Text
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize

Atomic = Union[str, int, float, bool]
Item = Any  # Atomic | Node | VNode | VirtualDocItem | Constructed
Sequence = list


class VirtualDocItem:
    """The document handle ``virtualDoc(uri, spec)`` evaluates to."""

    __slots__ = ("vdoc",)

    def __init__(self, vdoc: VirtualDocument) -> None:
        self.vdoc = vdoc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualDocItem({self.vdoc.document.uri})"


class Constructed:
    """What an element constructor evaluates to, before anything is built:
    the tag, the attribute ``(name, value)`` strings, and the content
    parts — merged text strings, nested constructed items, and the lists
    of node items enclosed expressions produced (the nodes themselves,
    not copies).

    :func:`items_to_xml` writes it as it stands.  :meth:`settle` builds
    the element the constructor denotes — embedded nodes copied, the
    element wrapped in its own ``#constructed-N`` document — once, for
    whatever navigates into it; :attr:`element` is ``None`` until then.
    """

    __slots__ = ("tag", "attributes", "content", "element", "_engine")

    def __init__(self, tag: str, attributes: tuple, content: list, engine) -> None:
        self.tag = tag
        self.attributes = attributes
        self.content = content
        self.element: Optional[Element] = None
        self._engine = engine

    def settle(self) -> Element:
        """The constructed element (built on the first call)."""
        if self.element is None:
            self.element = self._engine.register_constructed(_build(self))
        return self.element

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constructed(<{self.tag}>)"


#: Item classes that are nodes (everything else is an atomic value).
NODE_ITEMS = (Node, VNode, VirtualDocItem, Constructed)


def is_node(item: Item) -> bool:
    """True for tree nodes, virtual nodes, document handles and
    constructed elements."""
    return isinstance(item, NODE_ITEMS)


def kind_of(item: Item) -> NodeKind:
    """Node kind of a node item."""
    if isinstance(item, Node):
        return item.kind
    if isinstance(item, VNode):
        return item.node.kind
    if isinstance(item, VirtualDocItem):
        return NodeKind.DOCUMENT
    if isinstance(item, Constructed):
        return NodeKind.ELEMENT
    raise QueryEvaluationError(f"{item!r} is not a node")


def name_of(item: Item) -> str:
    """Node name (tag, ``@attr``, ``#text``, or document URI)."""
    if isinstance(item, Node):
        return item.name
    if isinstance(item, VNode):
        return item.node.name
    if isinstance(item, VirtualDocItem):
        return item.vdoc.document.uri
    if isinstance(item, Constructed):
        return item.tag
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
    if isinstance(item, Constructed):
        return _constructed_string_value(item)
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
    item becomes XML: stored and settled constructed nodes through the
    serializer, unsettled constructed items part by part
    (:func:`_write_constructed`), virtual nodes as their transformed values (a
    ``virtualDoc()`` handle writes its roots in virtual root order, the
    way ``doc()`` writes its children: one batch per root type), atomics
    via the XPath rules."""
    if isinstance(item, Node):
        parts.append(serialize(item))
    elif isinstance(item, VNode):
        write(item, parts, stats)
    elif isinstance(item, Constructed):
        _write_constructed(item, parts, stats)
    elif isinstance(item, VirtualDocItem):
        vdoc = item.vdoc
        for root_vtype in vdoc.vguide.roots:
            write_batch(vdoc.instances(root_vtype), parts, stats, vdoc)
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
            elif type(item) is Constructed:
                _write_constructed(item, parts, stats)
            else:
                write_item(item, parts, stats)
        if run:
            write_batch(run, parts, stats)
        text = "".join(parts)
        to_xml_span.set("spliced_ranges", stats.spliced_ranges)
        to_xml_span.set("constructed_elements", stats.constructed_elements)
        to_xml_span.set("constructed_items", stats.constructed_items)
        to_xml_span.set("batches", stats.batches)
        to_xml_span.set("merged_parents", stats.merged_parents)
        to_xml_span.set("bytes", len(text))
    return text


# -- constructed items ------------------------------------------------------------
#
# Writing and settling walk the same parts and must agree byte for byte
# with serializing the settled element: attributes (the constructor's,
# then embedded attribute nodes wherever they appear in the content) go
# into the start tag, everything else is content in order, and an element
# whose content wrote nothing is written ``<t/>``.


def _write_constructed(item: Constructed, parts: list[str], stats: ValueStats) -> None:
    """Append ``item``'s XML text to ``parts`` without building it: text
    parts escaped, nested items recursively, embedded nodes through the
    serializer and runs of same-type virtual nodes through one
    :func:`write_batch` each."""
    stats.constructed_items += 1
    slot = len(parts)
    parts.append("")  # the start tag, once the content has shown its attributes
    embedded = None  # ([names], [texts]) of attribute nodes met in the content
    for part in item.content:
        if type(part) is str:
            parts.append(escape_text(part))
        elif type(part) is Constructed:
            _write_constructed(part, parts, stats)
        else:
            embedded = _write_nodes(part, parts, stats, embedded)
    head = "<" + item.tag
    for name, value in item.attributes:
        head += f' {name}="{escape_attribute(value)}"'
    if embedded is not None:
        names, texts = embedded
        _check_attributes(item.tag, [name for name, _ in item.attributes] + names)
        head += "".join(" " + text for text in texts)
    if len(parts) == slot + 1:
        parts[slot] = head + "/>"
    else:
        parts[slot] = head + ">"
        parts.append("</" + item.tag + ">")


def _write_nodes(nodes: list, parts: list[str], stats: ValueStats, embedded):
    """Write the node items of one enclosed expression as a constructor's
    content; attribute nodes are collected into ``embedded`` (created on
    the first one) for the start tag, which is returned."""
    run: list = []
    for node in nodes:
        if type(node) is VNode and node.node.kind is not NodeKind.TEXT:
            if run and (node.vtype is not run[0].vtype or node._vdoc is not run[0]._vdoc):
                embedded = _write_run(run, parts, stats, embedded)
                run = []
            run.append(node)
            continue
        if run:
            embedded = _write_run(run, parts, stats, embedded)
            run = []
        if type(node) is VNode:
            node = node.node  # a virtual text node's value is its stored one
        if isinstance(node, Node):
            kind = node.kind
            if kind is NodeKind.TEXT:
                parts.append(escape_text(node.value))  # type: ignore[attr-defined]
            elif kind is NodeKind.ATTRIBUTE:
                if embedded is None:
                    embedded = ([], [])
                embedded[0].append(node.attr_name)  # type: ignore[attr-defined]
                embedded[1].append(serialize(node))
            else:
                parts.append(serialize(_embedded_root(node)))
        elif type(node) is Constructed:
            _write_constructed(node, parts, stats)
        else:
            write_item(node, parts, stats)  # a virtualDoc() handle: its roots
    if run:
        embedded = _write_run(run, parts, stats, embedded)
    return embedded


def _write_run(run: list, parts: list[str], stats: ValueStats, embedded):
    """One run of same-type virtual nodes as content, or — attribute
    nodes — into ``embedded``."""
    if run[0].node.kind is not NodeKind.ATTRIBUTE:
        write_batch(run, parts, stats)
        return embedded
    if embedded is None:
        embedded = ([], [])
    embedded[0].extend(vnode.node.attr_name for vnode in run)
    write_batch(run, embedded[1], stats)
    return embedded


def _embedded_root(node: Node) -> Node:
    """What embedding ``node`` copies: a document contributes its root."""
    if node.kind is not NodeKind.DOCUMENT:
        return node
    root = node.root  # type: ignore[attr-defined]
    if root is None:
        raise QueryEvaluationError("cannot embed an empty document")
    return root


def _check_attributes(tag: str, names: list[str]) -> None:
    """XQDY0025: a constructed element's attribute names are distinct."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise QueryEvaluationError(
                f"XQDY0025: constructed element <{tag}> has two attributes named {name!r}"
            )
        seen.add(name)


def _build(item: Constructed) -> Element:
    """The element ``item`` denotes: constructor attributes, then the
    content with every embedded node copied, adjacent text merged."""
    element = Element(item.tag)
    for name, value in item.attributes:
        element.append(Attribute(name, value))
    for part in item.content:
        if type(part) is str:
            _append_text(element, part)
        elif type(part) is Constructed:
            element.append(_build(part))
        else:
            for node in part:
                for copy in _copies(node):
                    element.append(copy)
    attributes = element.attributes
    if len(attributes) > 1:
        _check_attributes(item.tag, [attribute.attr_name for attribute in attributes])
    return element


def _copies(item: Item) -> list[Node]:
    """Free-standing copies of a node item for a constructor to embed
    (a ``virtualDoc()`` handle contributes one per virtual root)."""
    if isinstance(item, VNode):
        return [_require_vdoc(item).copy_subtree(item)]
    if isinstance(item, VirtualDocItem):
        return [item.vdoc.copy_subtree(root) for root in item.vdoc.roots()]
    if isinstance(item, Constructed):
        return [_build(item)]  # the same tree a copy of its settled element is
    return [clone_subtree(_embedded_root(item))]


def _append_text(element: Element, text: str) -> None:
    """Append text, merging with an adjacent text node (XQuery content
    merging)."""
    children = element.children
    if children and children[-1].kind is NodeKind.TEXT:
        children[-1].value = children[-1].value + text  # type: ignore[attr-defined]
    else:
        element.append(Text(text))


def _constructed_string_value(item: Constructed) -> str:
    """The string value of ``item``'s element, without building it:
    attribute values first (they lead the element's children), then the
    content's text."""
    head = [value for _, value in item.attributes]
    body = []
    for part in item.content:
        if type(part) is str:
            body.append(part)
        elif type(part) is Constructed:
            body.append(_constructed_string_value(part))
        else:
            for node in part:
                if isinstance(node, Node):
                    node = _embedded_root(node)
                (head if kind_of(node) is NodeKind.ATTRIBUTE else body).append(
                    string_value(node)
                )
    return "".join(head) + "".join(body)


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
