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

:func:`write_batch` is the only writer: query answers write each run of
same-type virtual nodes as one batch, and shard payloads and
:meth:`VirtualDocument.value <repro.core.virtual_document.VirtualDocument.value>`
write a batch of one (:func:`write`).  Per virtual type it works from a
plan — the intact flag and the child types split into attributes and
content, each with its ``lca_length`` and row-aligned key and node lists —
memoized with the view.  A batch is written a level at a time: a
restructured level finds every item's children with one moving-cursor
pass per child type, an intact level is spliced through one value-index
walk and one read per heap page, and no virtual node is allocated.
Nothing outlives the call but the plans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from repro.core.virtual_document import VirtualDocument, VNode
from repro.vdataguide.ast import VType
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize


@dataclass
class ValueStats:
    """Work counters of the writer.

    :ivar spliced_ranges: whole subtrees copied by a single range read.
    :ivar constructed_elements: elements whose tags were re-synthesized.
    :ivar batches: :func:`write_batch` calls (runs of same-type nodes).
    :ivar constructed_items: element constructor answers written without
        being built (:class:`repro.query.items.Constructed`).
    """

    spliced_ranges: int = 0
    constructed_elements: int = 0
    batches: int = 0
    constructed_items: int = 0


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


def mirrored_subtrees(vguide) -> frozenset:
    """``id`` of every virtual type whose subtree mirrors its original one
    (:func:`_mirrors_original` all the way down) — what :func:`is_intact`
    decides per type with the writer's plans, read off the vDataGuide
    alone, no row touched."""
    intact: set[int] = set()
    for vtype in reversed(list(vguide.iter_vtypes())):  # children first
        if _mirrors_original(vtype) and all(id(c) in intact for c in vtype.children):
            intact.add(id(vtype))
    return frozenset(intact)


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
    return ``parts``): :func:`write_batch` of one node."""
    return write_batch([vnode], parts, stats, vdoc)


def write_batch(
    vnodes: Sequence[VNode],
    parts: list[str],
    stats: Optional[ValueStats] = None,
    vdoc: Optional[VirtualDocument] = None,
) -> list[str]:
    """Append the transformed values of ``vnodes`` — nodes of one virtual
    type, in any order, repeats allowed — to ``parts``, one part per
    node in input order (and return ``parts``).  ``vdoc`` defaults to the
    view the first node is tagged with.

    The batch is written level by level: every constructed level finds
    all its items' children with one moving-cursor pass per child type,
    and every intact level is spliced through one value-index walk and
    one heap read per distinct page (:meth:`DocumentStore.values_of`)."""
    if not vnodes:
        return parts
    first = vnodes[0]
    if vdoc is None:
        vdoc = first._vdoc
        if vdoc is None:
            raise ValueError("virtual node is not attached to a virtual document")
    if stats is None:
        stats = ValueStats()
    stats.batches += 1
    plan = _plan(vdoc, first.vtype)
    parts.extend(_values(plan, [vnode.node for vnode in vnodes], stats, vdoc.store))
    return parts


def _values(plan: _Plan, nodes: list[Node], stats: ValueStats, store) -> list[str]:
    """The value of each of ``nodes`` (one virtual type, planned by
    ``plan``), in order."""
    kind = nodes[0].kind
    if kind is NodeKind.TEXT:
        return [escape_text(node.value) for node in nodes]  # type: ignore[attr-defined]
    if kind is NodeKind.ATTRIBUTE:
        return [
            f'{node.attr_name}="{escape_attribute(node.value)}"'  # type: ignore[attr-defined]
            for node in nodes
        ]
    if plan.intact:
        stats.spliced_ranges += len(nodes)
        if store is None:  # a store-less view has no heap to read from
            return [serialize(node) for node in nodes]
        return store.values_of([node.pbn for node in nodes])
    stats.constructed_elements += len(nodes)
    if not plan.attributes and not plan.content:
        return ["<" + node.tag + "/>" for node in nodes]  # type: ignore[attr-defined]
    keys = [node.pbn.components for node in nodes]
    attributes = [_children(entry, keys, stats, store) for entry in plan.attributes]
    content = [_children(entry, keys, stats, store) for entry in plan.content]
    out = []
    for index, node in enumerate(nodes):
        tag = node.tag  # type: ignore[attr-defined]
        head = "<" + tag
        if attributes:
            head += "".join(" " + value for value in _sibling_values(attributes, index))
        body = _sibling_values(content, index)
        out.append(head + ">" + "".join(body) + "</" + tag + ">" if body else head + "/>")
    return out


def _children(entry, parent_keys: list, stats: ValueStats, store):
    """One child type's share of a constructed level: ``(bounds, row
    keys, values)`` — ``bounds[i]`` is the ``[low, high)`` slice of the
    row keys and values holding parent ``i``'s children.  Parents sharing
    an ``lca_length`` prefix share the slice; the distinct prefixes,
    sorted, are found with one moving cursor over the type's key list,
    and their disjoint runs are written as one batch."""
    lca_length, keys, nodes, plan = entry
    runs: dict[tuple, tuple[int, int]] = {}
    rows: list[int] = []
    cursor, count = 0, len(keys)
    for prefix in sorted({key[:lca_length] for key in parent_keys}):
        # Runs of consecutive prefixes are usually adjacent: test the row
        # under the cursor before bisecting, and walk the run to its end.
        if cursor < count and keys[cursor][:lca_length] == prefix:
            low = cursor
        else:
            low = bisect_left(keys, prefix, cursor)
        cursor = low
        while cursor < count and keys[cursor][:lca_length] == prefix:
            cursor += 1
        runs[prefix] = (len(rows), len(rows) + cursor - low)
        rows.extend(range(low, cursor))
    values = _values(plan, [nodes[row] for row in rows], stats, store) if rows else []
    return (
        [runs[key[:lca_length]] for key in parent_keys],
        [keys[row] for row in rows],
        values,
    )


def _sibling_values(shares: list, index: int) -> list[str]:
    """Parent ``index``'s child values over ``shares`` (one per child
    type, in specification order), in sibling order: original document
    order, specification order breaking ties (a node placed twice)."""
    found = []
    for bounds, row_keys, values in shares:
        low, high = bounds[index]
        if low < high:
            found.append((row_keys, values, low, high))
    if len(found) < 2:  # one child type's rows are already in order
        return found[0][1][found[0][2] : found[0][3]] if found else []
    if len(found) == 2 and found[0][3] - found[0][2] == found[1][3] - found[1][2] == 1:
        (keys_a, values_a, a, _), (keys_b, values_b, b, _) = found
        if keys_a[a] <= keys_b[b]:
            return [values_a[a], values_b[b]]
        return [values_b[b], values_a[a]]
    merged = [
        (row_keys[row], position, values[row])
        for position, (row_keys, values, low, high) in enumerate(found)
        for row in range(low, high)
    ]
    merged.sort(key=itemgetter(0, 1))
    return [value for _, _, value in merged]
