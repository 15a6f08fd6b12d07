"""Writing transformed values (paper Section 6).

The value of a node is its substring of the stored document string.  After a
virtual transformation, a node's value must reflect the *virtual* subtree —
children may have moved in, out, or reordered — so the value is stitched
together: synthesized tags around the children's values.

The efficiency lever is the *intact* check: when a virtual type's subtree
mirrors its original subtree exactly (every original child type present as
a real parent/child edge, nothing else), the node's transformed value *is*
its original value, and one value-index lookup plus one heap range read
produces it — no per-node work, no matter how large the subtree.  The
``**`` wildcard produces intact subtrees by construction, so a typical
vDataGuide pins a few types and copies everything below them wholesale.
The heap is the canonical serialization and every update keeps it so, so a
spliced range is byte-identical to serializing a copy of the subtree.

:func:`write` is the only writer: query answers, shard payloads and
:meth:`VirtualDocument.value <repro.core.virtual_document.VirtualDocument.value>`
all stream through it into a parts list.  Per virtual type it works from a
plan — the intact flag and the child types split into attributes and
content, each with its ``lca_length`` and row-aligned key and node lists —
memoized with the view, so a restructured element finds its children by
bisecting key lists (:func:`~repro.core.virtual_document.sibling_rows`) and
allocates no virtual nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.virtual_document import VirtualDocument, VNode, sibling_rows
from repro.vdataguide.ast import VType
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize


@dataclass
class ValueStats:
    """Work counters of the writer.

    :ivar spliced_ranges: whole subtrees copied by a single range read.
    :ivar constructed_elements: elements whose tags were re-synthesized.
    """

    spliced_ranges: int = 0
    constructed_elements: int = 0


class _Plan(NamedTuple):
    """How to write instances of one virtual type.  ``attributes`` and
    ``content`` hold one ``(lca_length, keys, nodes, plan)`` entry per
    child type, in specification order; both stay empty for an intact
    type, whose children are never visited."""

    intact: bool
    attributes: tuple = ()
    content: tuple = ()


def _plan(vdoc: VirtualDocument, vtype: VType) -> _Plan:
    # Racing builders produce equal plans; the dict write is atomic.  The
    # plans reference rows and each other downward only, never the vdoc,
    # so a dropped view frees them by reference count.
    plan = vdoc._value_plans.get(vtype)
    if plan is None:
        children = [(child, _plan(vdoc, child)) for child in vtype.children]
        if _mirrors_original(vtype) and all(p.intact for _, p in children):
            plan = _Plan(True)
        else:
            entries = [
                (child.is_attribute, (child.lca_length, *vdoc.rows(child.original), p))
                for child, p in children
            ]
            plan = _Plan(
                False,
                tuple(entry for is_attribute, entry in entries if is_attribute),
                tuple(entry for is_attribute, entry in entries if not is_attribute),
            )
        vdoc._value_plans[vtype] = plan
    return plan


def _mirrors_original(vtype: VType) -> bool:
    """True iff the virtual children of ``vtype`` are exactly its original
    type's children, each placed once, as real parent/child edges."""
    original = vtype.original
    if len(original.children) != len(vtype.children):
        return False
    matched = set()
    for child in vtype.children:
        if child.lca_length != original.length or child.original.parent is not original:
            return False  # not a real parent/child edge
        matched.add(child.original)
    return len(matched) == len(original.children)  # no duplicated placement


def is_intact(vdoc: VirtualDocument, vtype: VType) -> bool:
    """True iff the virtual subtree below ``vtype`` mirrors the original
    subtree below its original type, so original values can be reused."""
    return _plan(vdoc, vtype).intact


def write(
    vnode: VNode,
    parts: list[str],
    stats: Optional[ValueStats] = None,
    vdoc: Optional[VirtualDocument] = None,
) -> list[str]:
    """Append the transformed value of ``vnode`` — equal to serializing
    its subtree in the materialized virtual document — to ``parts`` (and
    return ``parts``).  ``vdoc`` defaults to the view the node is tagged
    with."""
    if vdoc is None:
        vdoc = vnode._vdoc
        if vdoc is None:
            raise ValueError("virtual node is not attached to a virtual document")
    if stats is None:
        stats = ValueStats()
    _write(_plan(vdoc, vnode.vtype), vnode.node, parts, stats, vdoc.store)
    return parts


def _write(plan: _Plan, node: Node, parts: list[str], stats: ValueStats, store) -> None:
    kind = node.kind
    if kind is NodeKind.TEXT:
        parts.append(escape_text(node.value))  # type: ignore[attr-defined]
        return
    if kind is NodeKind.ATTRIBUTE:
        parts.append(f'{node.attr_name}="{escape_attribute(node.value)}"')  # type: ignore[attr-defined]
        return
    if plan.intact:
        stats.spliced_ranges += 1
        if store is None:  # a store-less view has no heap to read from
            parts.append(serialize(node))
        else:
            parts.append(store.value_of(node.pbn))
        return
    stats.constructed_elements += 1
    components = node.pbn.components
    tag = node.tag  # type: ignore[attr-defined]
    parts.append("<" + tag)
    if plan.attributes:
        for child_plan, child in sibling_rows(plan.attributes, components):
            parts.append(" ")
            _write(child_plan, child, parts, stats, store)
    content = sibling_rows(plan.content, components)
    if not content:
        parts.append("/>")
        return
    parts.append(">")
    for child_plan, child in content:
        _write(child_plan, child, parts, stats, store)
    parts.append("</" + tag + ">")
