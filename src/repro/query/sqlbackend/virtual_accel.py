"""Relational accel for one virtual document — a store's identity view
included, which is how ``strategy=sql`` steps a stored document.

The paper's per-*type* level arrays are what make this possible: every
instance of a virtual type shares one level array, so "x is a virtual
child of y" is a *prefix equality* between x's PBN components and y's,
cut at a per-type length (``lcaLength``) — a join between the instance
table and a tiny per-type table:

``vtypes(id, parent, kind, name, lca)``
    one row per virtual type: guide parent, node kind, label and the lca
    prefix length (in encoded characters).
``vnodes(id, vt, row, last, key)``
    one row per *reachable* instance: its type, its rank in virtual
    document order, the rank of the last node of its subtree, and its PBN
    components encoded as a fixed-width order-preserving string (8 hex
    chars per component, ranks from a per-accel dictionary so ORDPATH
    ``Fraction`` components sort correctly).

Hierarchical axes are prefix joins.  Because the encoded keys are
lowercase hex, a prefix equality ``substr(child.key, 1, t.lca) =
substr(parent.key, 1, t.lca)`` is rewritten as the half-open range
``child.key >= prefix AND child.key < prefix || 'g'`` (``'g'`` sorts
above every hex digit), which the composite ``vnodes(vt, key)`` index
answers with a seek instead of a full scan of the type's instances;
``descendant``/``ancestor`` are recursive CTEs over the same ranges.
Multi-item contexts batch through one query (:meth:`VirtualAccel.
step_many`): the context set loads into a scratch ``ctx`` table and a
single prefix join fans out to every context at once.

``row`` ranks every reachable instance by the virtual navigator's order
key (``VirtualNavigator._order_keys``: first-copy preorder, total on every
view), so every answer orders by ``row``, and ``row`` / ``last`` are a
pre/post numbering of that order: ``following`` is ``v.row > c.last``,
``preceding`` is ``v.last < c.row``.  The sibling axes keep the
candidates the exact Section 5 predicate relates to the context.  The
document handle is no row: it is a root's ``parent`` and ends every
``ancestor::node()``, as in the navigator.
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.core import vpbn
from repro.core.virtual_document import VirtualDocument, VNode
from repro.query.ast import NodeTest
from repro.query.eval_virtual import VirtualNavigator
from repro.query.items import VirtualDocItem
from repro.query.joins import type_matches

#: Fixed width (hex chars) of one encoded PBN component.
_W = 8

#: A private navigator: supplies the view's memoized order key and the
#: shared vtype test semantics (no stats side effects beyond the memo).
_NAV = VirtualNavigator()


def _prefix_range(key_col: str, prefix_expr: str) -> str:
    """Index-seekable form of ``substr(key_col, 1, lca) = prefix``: keys
    are lowercase hex, so ``'g'`` upper-bounds every extension of the
    prefix and the composite ``vnodes(vt, key)`` index can seek the
    half-open range instead of scanning the type's instances."""
    return f"{key_col} >= {prefix_expr} AND {key_col} < {prefix_expr} || 'g'"


def _test_sql(test: NodeTest, axis: str) -> tuple[str, list]:
    """WHERE fragment over the vtypes alias ``t`` mirroring
    ``joins.type_matches``."""
    if axis == "attribute":
        if test.kind in ("node", "wildcard"):
            return "t.kind = 'attribute'", []
        if test.kind == "name":
            return "t.kind = 'attribute' AND t.name = ?", ["@" + test.name]
        return "0 = 1", []
    if test.kind == "node":
        return "t.kind != 'attribute'", []
    if test.kind == "text":
        return "t.kind = 'text'", []
    if test.kind == "wildcard":
        return "t.kind = 'element'", []
    return "t.kind = 'element' AND t.name = ?", [test.name]


class VirtualAccel:
    """SQLite accel over one :class:`VirtualDocument` (see module doc)."""

    def __init__(self, vdoc: VirtualDocument, metrics=None) -> None:
        self.vdoc = vdoc
        self.metrics = metrics
        self.vtypes: list = []
        self.tid_of: dict[int, int] = {}
        for vtype in vdoc.vguide.iter_vtypes():
            self.tid_of[id(vtype)] = len(self.vtypes)
            self.vtypes.append(vtype)
        self.items: list[VNode] = []
        self.keys: list[str] = []
        self.id_of: dict[tuple[int, int], int] = {}
        instances: list[tuple[int, VNode]] = []
        values: set = set()
        for tid, vtype in enumerate(self.vtypes):
            for vnode in vdoc.reachable_instances(vtype):
                instances.append((tid, vnode))
                values.update(vnode.node.pbn.components)
        rank = {value: index for index, value in enumerate(sorted(values))}
        encoded = {(): ""}

        def encode(components: tuple) -> str:
            # Extend the longest prefix already encoded (the parent's, in
            # preorder): a component per node, not one per level.
            size = len(components)
            while components[:size] not in encoded:
                size -= 1
            text = encoded[components[:size]]
            for end in range(size + 1, len(components) + 1):
                text += format(rank[components[end - 1]], f"0{_W}x")
                encoded[components[:end]] = text
            return text

        order_key = _NAV._order_keys(vdoc)[0]
        ordered = sorted(
            ((order_key(vnode), tid, vnode) for tid, vnode in instances),
            key=lambda entry: entry[0],
        )
        # last[row]: the last row of its subtree — of the keys that extend
        # its key, which follow it in a block.
        last = list(range(len(ordered)))
        open_rows: list[int] = []
        for row, (order, _, _) in enumerate(ordered):
            while open_rows:
                prefix = ordered[open_rows[-1]][0]
                if order[: len(prefix)] == prefix:
                    break
                last[open_rows.pop()] = row - 1
            open_rows.append(row)
        for row in open_rows:
            last[row] = len(ordered) - 1
        vnode_rows = []
        for row, (_, tid, vnode) in enumerate(ordered):
            vid = len(self.items)
            self.items.append(vnode)
            key = encode(vnode.node.pbn.components)
            self.keys.append(key)
            self.id_of[(id(vnode.vtype), id(vnode.node))] = vid
            vnode_rows.append((vid, tid, row, last[row], key))
        vtype_rows = []
        for tid, vtype in enumerate(self.vtypes):
            parent = vtype.parent
            if vtype.is_attribute:
                kind = "attribute"
            elif vtype.is_text:
                kind = "text"
            else:
                kind = "element"
            vtype_rows.append(
                (
                    tid,
                    None if parent is None else self.tid_of[id(parent)],
                    kind,
                    vtype.name,
                    vtype.lca_length * _W,
                )
            )
        self.conn = sqlite3.connect(":memory:", check_same_thread=False)
        cur = self.conn.cursor()
        cur.execute(
            "CREATE TABLE vtypes (id INTEGER PRIMARY KEY, parent INTEGER,"
            " kind TEXT NOT NULL, name TEXT NOT NULL, lca INTEGER NOT NULL)"
        )
        cur.execute(
            "CREATE TABLE vnodes (id INTEGER PRIMARY KEY, vt INTEGER NOT NULL,"
            " row INTEGER NOT NULL, last INTEGER NOT NULL, key TEXT NOT NULL)"
        )
        # Composite (vt, key): prefix joins seek on (type, key range)
        # instead of scanning a type's instances; covers plain vt lookups.
        cur.execute("CREATE INDEX vnodes_vt_key ON vnodes(vt, key)")
        cur.execute("CREATE INDEX vnodes_row ON vnodes(row)")
        # Scratch context table for step_many's batched loading; cleared
        # per batch (engines are checked out exclusively, so no overlap).
        cur.execute("CREATE TABLE ctx (vid INTEGER, tid INTEGER, key TEXT)")
        cur.executemany("INSERT INTO vtypes VALUES (?, ?, ?, ?, ?)", vtype_rows)
        cur.executemany("INSERT INTO vnodes VALUES (?, ?, ?, ?, ?)", vnode_rows)
        self.conn.commit()
        if metrics is not None:
            metrics.incr("sql.accel.builds")

    def close(self) -> None:
        self.conn.close()

    # -- stepping ---------------------------------------------------------------

    def step(self, item, axis: str, test: NodeTest) -> Optional[list]:
        """Axis step with the virtual navigator's exact contract
        (axis order; reverse axes context-outward), or ``None`` when this
        accel cannot answer (unknown context or axis)."""
        if self.metrics is not None:
            self.metrics.incr("navigator.sql.steps")
        if isinstance(item, VirtualDocItem):
            return self._document_step(axis, test)
        vid = self.id_of.get((id(item.vtype), id(item.node)))
        if vid is None:
            return None
        handler = getattr(self, "_axis_" + axis.replace("-", "_"), None)
        if handler is None:
            return None
        return handler(item, vid, test)

    #: Axes step_many can answer with one batched prefix join.
    _BATCH_AXES = frozenset({"child", "attribute", "descendant", "descendant-or-self"})

    def step_many(self, items: list, axis: str, test: NodeTest) -> Optional[list]:
        """One relational query for a whole multi-item context (batched
        context loading): the context set loads into the scratch ``ctx``
        table and a single prefix join fans out to every context at once,
        deduplicating and ordering by ``row`` — the virtual document
        order the evaluator would otherwise re-establish item by item.
        Returns ``None`` when the axis is unsupported or a context item
        is unknown to the accel (caller falls back to per-item steps)."""
        if axis not in self._BATCH_AXES:
            return None
        rows = []
        for item in items:
            vid = self.id_of.get((id(item.vtype), id(item.node)))
            if vid is None:
                return None
            rows.append((vid, self.tid_of[id(item.vtype)], self.keys[vid]))
        if self.metrics is not None:
            self.metrics.incr("navigator.sql.batch_steps")
            self.metrics.incr("navigator.sql.batch_contexts", len(rows))
        cur = self.conn.cursor()
        cur.execute("DELETE FROM ctx")
        cur.executemany("INSERT INTO ctx VALUES (?, ?, ?)", rows)
        test_sql, test_params = _test_sql(test, axis)
        if axis in ("child", "attribute"):
            band = _prefix_range("v.key", "substr(c.key, 1, t.lca)")
            sql = (
                "SELECT DISTINCT v.id, v.row FROM ctx c"
                " JOIN vtypes t ON t.parent = c.tid"
                f" JOIN vnodes v ON v.vt = t.id AND {band}"
                f" WHERE ({test_sql}) ORDER BY v.row"
            )
            return self._fetch(sql, test_params)
        seed_band = _prefix_range("v.key", "substr(c.key, 1, t.lca)")
        step_band = _prefix_range("v.key", "substr(ch.key, 1, t.lca)")
        head = (
            "WITH RECURSIVE des(id) AS ("
            " SELECT v.id FROM ctx c"
            "  JOIN vtypes t ON t.parent = c.tid AND t.kind != 'attribute'"
            f"  JOIN vnodes v ON v.vt = t.id AND {seed_band}"
            " UNION"
            " SELECT v.id FROM des d"
            "  JOIN vnodes ch ON ch.id = d.id"
            "  JOIN vtypes t ON t.parent = ch.vt AND t.kind != 'attribute'"
            f"  JOIN vnodes v ON v.vt = t.id AND {step_band}"
            ") "
        )
        if axis == "descendant-or-self":
            sql = head + (
                "SELECT v.id FROM vnodes v JOIN vtypes t ON t.id = v.vt "
                "WHERE (v.id IN (SELECT id FROM des)"
                " OR v.id IN (SELECT vid FROM ctx)) "
                f"AND ({test_sql}) ORDER BY v.row"
            )
        else:
            sql = head + (
                "SELECT v.id FROM des d JOIN vnodes v ON v.id = d.id "
                f"JOIN vtypes t ON t.id = v.vt WHERE ({test_sql}) ORDER BY v.row"
            )
        return self._fetch(sql, test_params)

    def _document_step(self, axis: str, test: NodeTest) -> list:
        if axis == "child":
            sql, params = self._select("t.parent IS NULL", test, axis)
            return self._fetch(sql, params)
        if axis in ("descendant", "descendant-or-self"):
            sql, params = self._select("1 = 1", test, axis)
            found = self._fetch(sql, params)
            if axis == "descendant-or-self" and test.kind == "node":
                return [VirtualDocItem(self.vdoc), *found]
            return found
        if axis in ("self", "ancestor-or-self") and test.kind == "node":
            return [VirtualDocItem(self.vdoc)]
        return []

    def _select(self, condition: str, test: NodeTest, axis: str) -> tuple[str, list]:
        test_sql, test_params = _test_sql(test, axis)
        sql = (
            "SELECT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id "
            f"WHERE ({condition}) AND ({test_sql}) ORDER BY v.row"
        )
        return sql, test_params

    def _fetch(self, sql: str, params: list) -> list:
        cur = self.conn.execute(sql, params)
        return [self.items[row[0]] for row in cur.fetchall()]

    # -- axes --------------------------------------------------------------------

    def _axis_self(self, item: VNode, vid: int, test: NodeTest) -> list:
        if type_matches(item.vtype, test, "self"):
            return [item]
        return []

    def _child_like(self, item: VNode, vid: int, test: NodeTest, axis: str) -> list:
        # Axis order is this copy's sibling order (the navigator's):
        # attributes first, then key, then specification order.
        test_sql, test_params = _test_sql(test, axis)
        band = _prefix_range("v.key", "substr(?, 1, t.lca)")
        sql = (
            "SELECT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id "
            f"WHERE t.parent = ? AND {band} "
            f"AND ({test_sql}) ORDER BY t.kind != 'attribute', v.key, t.id"
        )
        tid = self.tid_of[id(item.vtype)]
        key = self.keys[vid]
        return self._fetch(sql, [tid, key, key, *test_params])

    def _axis_child(self, item, vid, test):
        return self._child_like(item, vid, test, "child")

    def _axis_attribute(self, item, vid, test):
        return self._child_like(item, vid, test, "attribute")

    def _axis_parent(self, item: VNode, vid: int, test: NodeTest) -> list:
        parent_vtype = item.vtype.parent
        if parent_vtype is None:
            # A root's parent is the document handle, as in the navigator.
            return [VirtualDocItem(self.vdoc)] if test.kind == "node" else []
        if not type_matches(parent_vtype, test, "parent"):
            return []
        clca = item.vtype.lca_length * _W
        band = _prefix_range("v.key", "substr(?, 1, ?)")
        sql = f"SELECT v.id FROM vnodes v WHERE v.vt = ? AND {band} ORDER BY v.key DESC"
        key = self.keys[vid]
        return self._fetch(
            sql, [self.tid_of[id(parent_vtype)], key, clca, key, clca]
        )

    def _ancestors_sql(self, item: VNode, vid: int) -> tuple[str, list]:
        clca = item.vtype.lca_length * _W
        ptid = self.tid_of[id(item.vtype.parent)]
        seed_band = _prefix_range("v.key", "substr(?, 1, ?)")
        step_band = _prefix_range("p.key", "substr(c.key, 1, ct.lca)")
        sql = (
            "WITH RECURSIVE anc(id) AS ("
            " SELECT v.id FROM vnodes v"
            f"  WHERE v.vt = ? AND {seed_band}"
            " UNION"
            " SELECT p.id FROM anc a"
            "  JOIN vnodes c ON c.id = a.id"
            "  JOIN vtypes ct ON ct.id = c.vt"
            f"  JOIN vnodes p ON p.vt = ct.parent AND {step_band}"
            ") "
        )
        key = self.keys[vid]
        return sql, [ptid, key, clca, key, clca]

    def _axis_ancestor(self, item: VNode, vid: int, test: NodeTest) -> list:
        # Nearest first, and the document handle last on node() tests.
        found = []
        if item.vtype.parent is not None:
            head, params = self._ancestors_sql(item, vid)
            test_sql, test_params = _test_sql(test, "ancestor")
            sql = head + (
                "SELECT v.id FROM anc a JOIN vnodes v ON v.id = a.id "
                f"JOIN vtypes t ON t.id = v.vt WHERE ({test_sql}) ORDER BY v.row DESC"
            )
            found = self._fetch(sql, [*params, *test_params])
        if test.kind == "node":
            found.append(VirtualDocItem(self.vdoc))
        return found

    def _axis_ancestor_or_self(self, item: VNode, vid: int, test: NodeTest) -> list:
        head = (
            [item] if type_matches(item.vtype, test, "ancestor-or-self") else []
        )
        return head + self._axis_ancestor(item, vid, test)

    def _descendants_sql(self, vid: int, tid: int) -> tuple[str, list]:
        seed_band = _prefix_range("v.key", "substr(?, 1, t.lca)")
        step_band = _prefix_range("v.key", "substr(c.key, 1, t.lca)")
        sql = (
            "WITH RECURSIVE des(id) AS ("
            " SELECT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id"
            "  WHERE t.parent = ? AND t.kind != 'attribute'"
            f"   AND {seed_band}"
            " UNION"
            " SELECT v.id FROM des d"
            "  JOIN vnodes c ON c.id = d.id"
            "  JOIN vnodes v JOIN vtypes t ON v.vt = t.id"
            "  WHERE t.parent = c.vt AND t.kind != 'attribute'"
            f"   AND {step_band}"
            ") "
        )
        key = self.keys[vid]
        return sql, [tid, key, key]

    def _axis_descendant(self, item: VNode, vid: int, test: NodeTest) -> list:
        head, params = self._descendants_sql(vid, self.tid_of[id(item.vtype)])
        test_sql, test_params = _test_sql(test, "descendant")
        sql = head + (
            "SELECT v.id FROM des d JOIN vnodes v ON v.id = d.id "
            f"JOIN vtypes t ON t.id = v.vt WHERE ({test_sql}) ORDER BY v.row"
        )
        return self._fetch(sql, [*params, *test_params])

    def _axis_descendant_or_self(self, item: VNode, vid: int, test: NodeTest) -> list:
        found = self._axis_descendant(item, vid, test)
        if type_matches(item.vtype, test, "descendant-or-self"):
            return [item, *found]
        return found

    # -- ordering axes -----------------------------------------------------------

    def _ordering(self, item: VNode, vid: int, test: NodeTest, axis: str) -> list:
        # After the context's subtree, or before it and not its ancestor:
        # rows past its ``last``, or rows whose own ``last`` is below its row.
        test_sql, test_params = _test_sql(test, axis)
        row, last = self.conn.execute(
            "SELECT row, last FROM vnodes WHERE id = ?", (vid,)
        ).fetchone()
        if axis == "following":
            band, params, direction = "v.row > ?", [last], ""
        else:
            band, params, direction = "v.row < ? AND v.last < ?", [row, row], " DESC"
        sql = (
            "SELECT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id "
            f"WHERE ({test_sql}) AND {band} ORDER BY v.row{direction}"
        )
        return self._fetch(sql, [*test_params, *params])

    def _axis_following(self, item, vid, test):
        return self._ordering(item, vid, test, "following")

    def _axis_preceding(self, item, vid, test):
        return self._ordering(item, vid, test, "preceding")

    # -- sibling axes ------------------------------------------------------------

    def _siblings(self, item: VNode, vid: int, test: NodeTest, axis: str) -> list:
        if item.vtype.is_attribute:
            return []
        test_sql, test_params = _test_sql(test, axis)
        parent_vtype = item.vtype.parent
        if parent_vtype is None:
            sql = (
                "SELECT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id "
                f"WHERE t.parent IS NULL AND ({test_sql})"
            )
            params: list = [*test_params]
        else:
            ptid = self.tid_of[id(parent_vtype)]
            clca = item.vtype.lca_length * _W
            parent_band = _prefix_range("p.key", "substr(?, 1, ?)")
            child_band = _prefix_range("v.key", "substr(p.key, 1, t.lca)")
            sql = (
                "SELECT DISTINCT v.id FROM vnodes v JOIN vtypes t ON v.vt = t.id"
                f" JOIN vnodes p ON p.vt = ? AND {parent_band}"
                f" WHERE t.parent = ? AND {child_band}"
                f"  AND ({test_sql})"
            )
            key = self.keys[vid]
            params = [ptid, key, clca, key, clca, ptid, *test_params]
        forward = axis == "following-sibling"
        order = " ORDER BY v.row" + ("" if forward else " DESC")
        cur = self.conn.execute(sql + order, params)
        reference = item.vpbn
        predicate = vpbn.v_following_sibling if forward else vpbn.v_preceding_sibling
        out = []
        for (cand_id,) in cur.fetchall():
            candidate = self.items[cand_id]
            if predicate(candidate.vpbn, reference):
                out.append(candidate)
        return out

    def _axis_following_sibling(self, item, vid, test):
        return self._siblings(item, vid, test, "following-sibling")

    def _axis_preceding_sibling(self, item, vid, test):
        return self._siblings(item, vid, test, "preceding-sibling")
