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
content, each with its ``lca_length``, row-aligned key and node lists and
original type — memoized with the view.  A batch is written a level at a
time, and no virtual node is allocated:

* a *constructed* level finds every item's children with one
  moving-cursor pass per child type, which yields each child type's rows
  and, per parent, the slice of them it owns (its *run*).  When under
  every parent the runs follow each other in one fixed type order —
  checked in one pass over the parents, comparing runs at their ends —
  the level is written column by column: one joined run per type and
  parent, then every element with one comprehension.  The order may
  differ from the specification's (``title { name { author } }`` writes a
  name's author before its text); a tie (one node placed twice) keeps
  specification order.  Only a level whose runs interleave (or whose
  parents disagree on the order) is merged parent by parent, by key;
  ``ValueStats.merged_parents`` counts the parents that needed it.  A parent
  with child rows writes ``<t>...</t>`` even when their values are all
  empty; one without writes ``<t/>``.
* an *intact* child level is spliced by row: the store keeps a span
  column per type and version, row-aligned with the type's posting list
  (:meth:`DocumentStore.row_values`), so the rows the cursor pass found
  index it directly — no key encoding, no bisect — and the ranges are
  read with one heap read per page.  Intact query answers, whose rows are
  not known, go through one value-index walk
  (:meth:`DocumentStore.values_of`).

Nothing outlives the call but the plans and the span columns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter, le
from typing import NamedTuple, Optional, Sequence

from repro.core.virtual_document import VirtualDocument, VNode
from repro.vdataguide.ast import VType
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xmlmodel.serializer import escape_attribute, escape_text


@dataclass
class ValueStats:
    """Work counters of the writer.

    :ivar spliced_ranges: whole subtrees copied by a single range read.
    :ivar constructed_elements: elements whose tags were re-synthesized.
    :ivar batches: :func:`write_batch` calls (runs of same-type nodes).
    :ivar constructed_items: element constructor answers written without
        being built (:class:`repro.query.items.Constructed`).
    :ivar merged_parents: constructed elements whose children the
        per-parent merge sorted by key — runs of two or more child types
        on a level whose runs interleave (or whose parents disagree on the
        type order), so it was not written column by column.
    """

    spliced_ranges: int = 0
    constructed_elements: int = 0
    batches: int = 0
    constructed_items: int = 0
    merged_parents: int = 0


class _Plan(NamedTuple):
    """How to write instances of one virtual type.  ``attributes`` and
    ``content`` hold one ``(lca_length, keys, nodes, plan, original)``
    entry per child type, in specification order; both stay empty for an
    intact type, whose children are never visited."""

    intact: bool
    attributes: tuple = ()
    content: tuple = ()


def _plan(vdoc: VirtualDocument, vtype: VType) -> _Plan:
    # Racing builders produce equal plans; the dict writes are atomic.
    # The plans reference rows and each other downward only, never the
    # vdoc, so a dropped view frees them by reference count.
    plans = vdoc._value_plans
    plan = plans.get(vtype)
    if plan is not None:
        return plan
    # Children before parents, off an explicit stack: a ``**`` subtree is
    # as deep as the document.
    order, pending = [], [vtype]
    while pending:
        current = pending.pop()
        order.append(current)
        pending.extend(child for child in current.children if child not in plans)
    for current in reversed(order):
        children = [(child, plans[child]) for child in current.children]
        if _mirrors_original(current) and all(p.intact for _, p in children):
            plan = _Plan(True)
        else:
            entries = [
                (
                    child.is_attribute,
                    (child.lca_length, *vdoc.rows(child.original), p, child.original),
                )
                for child, p in children
            ]
            plan = _Plan(
                False,
                tuple(entry for is_attribute, entry in entries if is_attribute),
                tuple(entry for is_attribute, entry in entries if not is_attribute),
            )
        plans[current] = plan
    return plans[vtype]


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

    The batch is written level by level (see the module docstring):
    every constructed level finds all its items' children with one
    moving-cursor pass per child type; intact children are spliced by
    row off the store's span columns, intact answers through one
    value-index walk (:meth:`DocumentStore.values_of`), each with one
    heap read per distinct page."""
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
        return store.values_of([node.pbn for node in nodes])
    keys = [node.pbn.components for node in nodes]
    return _constructed(plan, keys, nodes[0].tag, stats, store)  # type: ignore[attr-defined]


def _row_values(entry, rows, stats: ValueStats, store) -> list[str]:
    """The values of one text, attribute or intact child type's nodes at
    ``rows`` (a list or a range) of its key list — an attribute's with
    the space that separates it in a start tag; an intact type's spliced
    by row off the store's span column."""
    _, _, nodes, _, original = entry
    if original.is_text:
        return [escape_text(node.value) for node in _pick(nodes, rows)]
    if original.is_attribute:
        return [
            f' {node.attr_name}="{escape_attribute(node.value)}"'
            for node in _pick(nodes, rows)
        ]
    stats.spliced_ranges += len(rows)
    return store.row_values(original, rows)


def _pick(column: list, rows) -> list:
    """``column``'s entries at ``rows``: a slice for a range."""
    if type(rows) is range:
        return column[rows.start : rows.stop]
    return list(map(column.__getitem__, rows))


class _Level:
    """One constructed level of a batch: the elements numbered ``keys``
    (one virtual type, planned by ``plan``), and per child type its
    ``[bounds, keys, rows, values]`` share — ``values`` is the level
    below while that is not written yet."""

    __slots__ = ("plan", "keys", "tag", "shares", "values")

    def __init__(self, plan: _Plan, keys: list, tag: str) -> None:
        self.plan, self.keys, self.tag = plan, keys, tag
        self.shares: list[list] = []
        self.values: list[str] = []


def _constructed(plan: _Plan, keys: list, tag: str, stats: ValueStats, store) -> list[str]:
    """The values of the elements numbered ``keys`` (one constructed
    virtual type).  The constructed levels below are found top down, off
    an explicit stack (a restructured subtree can be as deep as the
    document), each child type's rows with one cursor pass and the text,
    attribute and intact ones' values with them; then every level is
    written bottom up, each with one comprehension."""
    levels = [_Level(plan, keys, tag)]
    pending = list(levels)
    while pending:
        level = pending.pop()
        for entry in level.plan.attributes + level.plan.content:
            bounds, rows = _children(entry, level.keys)
            _, child_keys, nodes, child_plan, original = entry
            if not rows:
                values = []
            elif original.is_text or original.is_attribute or child_plan.intact:
                values = _row_values(entry, rows, stats, store)
            else:
                values = _Level(child_plan, _pick(child_keys, rows), nodes[rows[0]].tag)
                levels.append(values)
                pending.append(values)
            level.shares.append([bounds, child_keys, rows, values])
    for level in reversed(levels):  # every level after the levels below it
        for share in level.shares:
            if type(share[3]) is _Level:
                share[3] = share[3].values
        level.values = _write_level(level, stats)
    return levels[0].values


def _write_level(level: _Level, stats: ValueStats) -> list[str]:
    """Every element of one constructed level, its children's values
    known: one comprehension over the level's joined child runs."""
    plan, keys, tag = level.plan, level.keys, level.tag
    stats.constructed_elements += len(keys)
    empty = "<" + tag + "/>"
    if not plan.attributes and not plan.content:
        return [empty] * len(keys)
    split = len(plan.attributes)
    content = _level(level.shares[split:], len(keys), stats)
    close = "</" + tag + ">"
    if not split:
        start = "<" + tag + ">"
        return [empty if body is None else start + body + close for body in content]
    heads = _level(level.shares[:split], len(keys), stats)
    head = "<" + tag
    return [
        head + (attributes or "") + ("/>" if body is None else ">" + body + close)
        for attributes, body in zip(heads, content)
    ]


def _children(entry, parent_keys: list):
    """One child type's rows under a constructed level: ``(bounds,
    rows)`` — ``rows`` (a list or a range) index the type's key list in
    ascending order, and ``bounds[i]`` is the ``[low, high)`` slice of
    ``rows`` holding parent ``i``'s children.  Parents sharing an
    ``lca_length`` prefix share the slice; the distinct prefixes, in
    order, are found with one moving cursor over the type's key list.
    Parents in document order (a query's answer) are walked as they
    come; any other order is sorted first."""
    lca_length, keys = entry[0], entry[1]
    prefixes = [key[:lca_length] for key in parent_keys]
    ordered = all(map(le, prefixes, prefixes[1:]))
    walk = prefixes if ordered else sorted(set(prefixes))
    runs: list[tuple[int, int]] = []
    pieces: list[tuple[int, int]] = []  # each distinct prefix's rows
    cursor, count, total = 0, len(keys), 0
    previous = run = None
    for prefix in walk:
        if prefix != previous:
            # Runs of consecutive prefixes are usually adjacent: test the
            # row under the cursor before bisecting, and walk the run to
            # its end.
            if cursor < count and keys[cursor][:lca_length] == prefix:
                low = cursor
                cursor += 1
            else:
                low = cursor = bisect_left(keys, prefix, cursor)
            while cursor < count and keys[cursor][:lca_length] == prefix:
                cursor += 1
            if cursor > low:
                pieces.append((low, cursor))
            run = (total, total + cursor - low)
            total += cursor - low
            previous = prefix
        runs.append(run)
    if not ordered:
        found = dict(zip(walk, runs))
        runs = [found[prefix] for prefix in prefixes]
    if not pieces:
        return runs, []
    # The pieces ascend; adjacent ones (every parent in a stretch of the
    # document) make one range of rows, which the columns slice.
    if all(left[1] == right[0] for left, right in zip(pieces, pieces[1:])):
        return runs, range(pieces[0][0], pieces[-1][1])
    return runs, [row for low, high in pieces for row in range(low, high)]


def _level(shares: list, count: int, stats: ValueStats) -> list:
    """Per parent (of ``count``), the values of its children over ``shares`` (one per
    child type, in specification order) joined in sibling order —
    ``None`` for a parent without a child row.  Column by column when
    every parent's runs follow each other in one type order
    (:func:`_run_order`): one joined run per type and parent, then one
    join per parent.  Any other level is merged parent by parent
    (:func:`_merged`)."""
    if not shares:
        return [None] * count
    order = _run_order(shares) if len(shares) > 1 else [0]
    if order is None:
        return _merged(shares, count, stats)
    columns = [
        [values[low] if high - low == 1 else "".join(values[low:high]) for low, high in bounds]
        for bounds, _, _, values in map(shares.__getitem__, order)
    ]
    bodies = columns[0] if len(columns) == 1 else list(map("".join, zip(*columns)))
    if "" in bodies:  # no child row, or only rows with empty values
        for index, body in enumerate(bodies):
            if not body and all(bounds[index][0] == bounds[index][1] for bounds, *_ in shares):
                bodies[index] = None
    return bodies


def _run_order(shares: list) -> Optional[list[int]]:
    """The share indices in the one order in which every parent's
    non-empty runs follow each other, or ``None`` when some parent's runs
    interleave or no single order fits every parent.  One pass over the
    parents compares each pair of runs at their ends: the earlier run's
    last key must sort before the later run's first key — or equal it
    (one node placed twice) with the earlier type first in
    specification order, the tie rule of sibling order.  The order may
    differ from the specification's (``title { name { author } }``
    writes ``author`` before ``name``'s text)."""
    pairs = [
        (a, b, shares[a][1], shares[a][2], shares[b][1], shares[b][2])
        for a in range(len(shares))
        for b in range(a + 1, len(shares))
    ]
    ahead: set[tuple[int, int]] = set()
    for runs in zip(*[bounds for bounds, *_ in shares]):
        for a, b, keys_a, rows_a, keys_b, rows_b in pairs:
            low_a, high_a = runs[a]
            low_b, high_b = runs[b]
            if low_a == high_a or low_b == high_b:
                continue
            if keys_a[rows_a[high_a - 1]] <= keys_b[rows_b[low_b]]:
                ahead.add((a, b))
            elif keys_b[rows_b[high_b - 1]] < keys_a[rows_a[low_a]]:
                ahead.add((b, a))
            else:
                return None  # the runs interleave
    order: list[int] = []
    left = list(range(len(shares)))
    while left:
        ready = [t for t in left if not any((u, t) in ahead for u in left)]
        if not ready:
            return None  # parents disagree on the order
        order.append(ready[0])
        left.remove(ready[0])
    return order


def _merged(shares: list, count: int, stats: ValueStats) -> list:
    """:func:`_level` parent by parent: a parent with runs of several
    types sorts its children by key, specification order breaking ties
    (a node placed twice); each such parent counts in
    ``stats.merged_parents``."""
    bodies: list = []
    for index in range(count):
        found = [
            (keys, rows, values, low, high)
            for bounds, keys, rows, values in shares
            for low, high in (bounds[index],)
            if low < high
        ]
        if not found:
            bodies.append(None)
        elif len(found) == 1:
            _, _, values, low, high = found[0]
            bodies.append("".join(values[low:high]))
        else:
            stats.merged_parents += 1
            merged = [
                (keys[rows[row]], position, values[row])
                for position, (keys, rows, values, low, high) in enumerate(found)
                for row in range(low, high)
            ]
            merged.sort(key=itemgetter(0, 1))
            bodies.append("".join(value for _, _, value in merged))
    return bodies
