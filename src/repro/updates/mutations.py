"""Copy-on-write mutation of a document store.

:func:`apply_op` is the whole update path: it takes an immutable
:class:`~repro.storage.store.DocumentStore` *version* plus one logical
operation and derives the next version, without touching the input.  An
in-flight query keeps reading its snapshot; the service publishes the new
version when derivation completes.

What "incremental maintenance" means here, structure by structure:

* **heap** — one text splice; every page wholly before the first changed
  character is *shared by id* with the old version
  (:meth:`~repro.storage.heap.HeapFile.splice`);
* **value index** — pages before the splice point are shared as they
  are, pages after it are shared under a shifted per-page offset base;
  only the pages holding the splice point, a deleted subtree, an ancestor
  of the mutation site or the fragment's entries are rewritten
  (:meth:`~repro.storage.value_index.ValueIndex.derive`).  Keys stay
  encoded throughout; no re-serialization, no re-parse;
* **type index** — only the posting lists of types actually gaining or
  losing instances are copied and edited; all others are shared;
* **text index** — only the terms occurring in changed values are copied
  (and only if the old version ever built its keyword index);
* **DataGuide** — copied with identical Type IDs; the old version's guide
  stays frozen, the new one adjusts counts and may append new types;
* **numbers** — *no extant PBN number ever changes*.  A new sibling
  component is minted by ORDPATH careting folded into a rational
  (:mod:`repro.updates.careting`); the subtree below it is numbered
  densely ``1..n`` as at initial load.

The node tree itself is deep-copied, and the two per-node maps are filled
in the same walk (engines find a node's store by walking ``parent`` up to
its ``Document``, so a subtree shared between versions would be attributed
to the old one); everything else — heap pages, index pages, posting lists
— is shared or derived in time proportional to the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StorageError, UpdateError
from repro.obs.trace import span
from repro.pbn.codec import encode_key
from repro.pbn.number import Pbn
from repro.storage.store import DocumentStore, _serialize_with_spans
from repro.storage.heap import HeapFile
from repro.storage.value_index import ValueEntry
from repro.updates.careting import (
    component_after,
    component_before,
    component_between,
)
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText, UpdateOp
from repro.xmlmodel.nodes import (
    Attribute,
    Document,
    Element,
    Node,
    NodeKind,
    Text,
)
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import escape_attribute, escape_text


@dataclass(frozen=True)
class MutationResult:
    """The outcome of one applied operation.

    :ivar store: the derived store version (input store is untouched).
    :ivar touched_paths: DataGuide paths of every inserted, deleted, or
        rewritten node — the view-invalidation key (ancestor coverage is
        by prefix relation, so paths of changed *subtrees* suffice).
    :ivar minted: numbers of all inserted nodes, document order (the
        subtree root first).  Extant numbers never appear here.
    :ivar removed: numbers of all deleted nodes, document order.
    """

    store: DocumentStore
    touched_paths: frozenset
    minted: tuple = ()
    removed: tuple = ()


def apply_op(store: DocumentStore, op: UpdateOp) -> MutationResult:
    """Derive the next store version from ``store`` and ``op``.

    Pure with respect to ``store``: on any error the input is unchanged
    and no new version exists.

    :raises UpdateError: for operations invalid against this version.
    :raises StorageError: for numbers that do not exist in this version.
    """
    with span("update.derive", op.describe()):
        if isinstance(op, InsertSubtree):
            return _apply_insert(store, op)
        if isinstance(op, DeleteSubtree):
            return _apply_delete(store, op)
        if isinstance(op, ReplaceText):
            return _apply_replace(store, op)
        raise UpdateError(f"unknown update operation {op!r}")


# ---------------------------------------------------------------------------
# tree copying
# ---------------------------------------------------------------------------


def _copy_tree(
    store: DocumentStore, guide_map: dict, skip: Optional[Node] = None
) -> tuple[Document, dict, dict]:
    """Deep-copy ``store``'s node tree, minus the subtree at ``skip``, and
    fill the copy's ``node_by_key`` / ``type_of_node`` maps (typed against
    the copied guide) in the same walk.

    This walk is what an update still pays per document node, so it is
    written for speed: twins are made with ``object.__new__`` and their
    slots filled directly (the constructors re-validate names and
    initialise ``parent`` / ``pbn`` only to have them overwritten — a third
    of the walk).  And it is a loop, not a recursive closure: a closure
    that calls itself is a reference cycle holding both maps until the
    next full collection.
    """
    old_types = store._type_of_node
    duplicate = Document(store.document.uri)
    node_by_key: dict = {}
    type_of_node: dict = {}
    new = object.__new__
    element, attribute, text = NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.TEXT
    pending: list[tuple[Node, Node]] = [(store.document, duplicate)]
    for node, twin in pending:  # grows while iterated: breadth-first
        siblings = twin.children
        for child in node.children:
            if child is skip:
                continue
            kind = child.kind
            if kind is element:
                copy = new(Element)
                copy.tag = child.tag
                copy._children = []
                pending.append((child, copy))
            elif kind is attribute:
                copy = new(Attribute)
                copy.attr_name = child.attr_name
                copy.value = child.value
            elif kind is text:
                copy = new(Text)
                copy.value = child.value
            else:  # pragma: no cover - documents are never children
                raise UpdateError("cannot copy a document node as a child")
            number = copy.pbn = child.pbn
            copy.parent = twin
            siblings.append(copy)
            node_by_key[number.components] = copy
            type_of_node[copy] = guide_map[old_types[child]]
    return duplicate, node_by_key, type_of_node


# ---------------------------------------------------------------------------
# the shared derivation core
# ---------------------------------------------------------------------------


@dataclass
class _Derivation:
    """Everything one splice-shaped mutation needs to derive the next
    version's structures.  Nodes named here are the *old* version's."""

    store: DocumentStore
    site: Pbn  # where it happens: inserted root, deleted root, replaced leaf
    document: Document  # already-mutated copy
    node_by_key: dict  # the copy's maps; fragment nodes join in _derive
    type_of_node: dict
    guide: object
    guide_map: dict
    cut_start: int
    cut_end: int
    replacement: str
    ancestors: list  # nodes whose spans stretch around the cut
    overrides: dict = field(default_factory=dict)  # node -> (s, e, cs, ce)
    deleted: Optional[Node] = None  # root of the dropped subtree
    inserted: list = field(default_factory=list)  # (node, s, e, cs, ce)
    text_removed: list = field(default_factory=list)  # (value, comps)
    text_added: list = field(default_factory=list)


def _derive(base: _Derivation) -> MutationResult:
    store = base.store
    delta = len(base.replacement) - (base.cut_end - base.cut_start)
    heap = HeapFile.splice(
        store.heap, base.cut_start, base.cut_end, base.replacement
    )

    # Type table: identical ids for surviving types, new types appended.
    types_by_id = [base.guide_map[t] for t in store.types_by_id]
    id_of_type = {t: i for i, t in enumerate(types_by_id)}

    removed_pairs: list[tuple[Pbn, int]] = []
    touched_type_ids: set[int] = set()
    touched_paths: set[tuple] = set()
    if base.deleted is not None:
        for node in base.deleted.iter_subtree():
            type_id = store.type_id(store.type_of(node))
            removed_pairs.append((node.pbn, type_id))
            touched_type_ids.add(type_id)
            touched_paths.add(types_by_id[type_id].path)
            types_by_id[type_id].count -= 1
    # Types whose *string values* change although their postings do not:
    # every surviving override/ancestor node stretches or rewrites its
    # value, which invalidates its type's CAS columns even though the
    # structural type index keeps them untouched.
    cas_touched = {
        store.type_id(store.type_of(node))
        for node in (*base.ancestors, *base.overrides)
    }

    # Fragment entries: typed against the (copied) guide.
    minted_numbers: list[Pbn] = []
    inserted_types: dict[Node, object] = {}
    inserted_items: list[tuple[bytes, ValueEntry]] = []
    for node, s, e, cs, ce in base.inserted:
        guide_type = base.guide.ensure_type(tuple(node.path_names()))
        guide_type.count += 1
        type_id = id_of_type.get(guide_type)
        if type_id is None:
            type_id = len(types_by_id)
            types_by_id.append(guide_type)
            id_of_type[guide_type] = type_id
        inserted_items.append(
            (encode_key(node.pbn), ValueEntry(s, e, type_id, node.kind, cs, ce))
        )
        minted_numbers.append(node.pbn)
        inserted_types[node] = guide_type
        touched_type_ids.add(type_id)
        touched_paths.add(guide_type.path)
        base.node_by_key[node.pbn.components] = node
        base.type_of_node[node] = guide_type

    value_index = store.value_index.derive(
        base.cut_start,
        base.cut_end,
        delta,
        drop_prefix=(
            encode_key(base.deleted.pbn) if base.deleted is not None else None
        ),
        overrides={
            encode_key(node.pbn): spans for node, spans in base.overrides.items()
        },
        stretch=frozenset(encode_key(node.pbn) for node in base.ancestors),
        inserted=inserted_items,
        site=encode_key(base.site),
    )

    # Copy-on-write: touched posting lists are copied, everything else is
    # shared — including the untouched types' (possibly bit-packed)
    # columns, which are immutable snapshots over the shared lists.  A
    # touched type's column is dropped here and lazily rebuilt through
    # the codec registry on the next query; insert/remove below mutate
    # only the copied posting lists (the source of truth).
    type_index = store.type_index.derived(touched_type_ids, store.stats)
    for number, type_id in removed_pairs:
        type_index.remove(type_id, number)
    for node, guide_type in inserted_types.items():
        type_index.insert(id_of_type[guide_type], node.pbn)

    text_index = store._text_index
    if text_index is not None and (base.text_removed or base.text_added):
        text_index = text_index.derived(
            base.text_removed, base.text_added, store.stats
        )

    derived = DocumentStore.from_parts(
        document=base.document,
        guide=base.guide,
        types_by_id=types_by_id,
        page_manager=store.page_manager,
        buffer_pool=store.buffer_pool,
        heap=heap,
        value_index=value_index,
        type_index=type_index,
        node_by_key=base.node_by_key,
        type_of_node=base.type_of_node,
        stats=store.stats,
        text_index=text_index,
        version=store.version + 1,
    )
    if store._cas_index is not None:
        derived._cas_index = store._cas_index.derived(
            derived, touched_type_ids | cas_touched
        )
    return MutationResult(
        store=derived,
        touched_paths=frozenset(touched_paths),
        minted=tuple(minted_numbers),
        removed=tuple(number for number, _ in removed_pairs),
    )


def _ancestor_chain(node: Node) -> list:
    """``node`` and every ancestor element."""
    chain = []
    while node.kind is not NodeKind.DOCUMENT:
        chain.append(node)
        node = node.parent
    return chain


# ---------------------------------------------------------------------------
# insert
# ---------------------------------------------------------------------------


def _apply_insert(store: DocumentStore, op: InsertSubtree) -> MutationResult:
    old_parent = store.node(op.parent)
    if old_parent.kind is not NodeKind.ELEMENT:
        raise UpdateError(f"insert parent {op.parent} is not an element")

    fragment_doc = parse_document(op.fragment, "fragment")
    roots = fragment_doc.children
    if len(roots) != 1 or roots[0].kind is not NodeKind.ELEMENT:
        raise UpdateError("insert fragment must be exactly one element")
    fragment_root = roots[0]
    fragment_text, fragment_records = _serialize_with_spans(fragment_doc)

    # Position among the (old) children; minting uses sibling components.
    children = old_parent.children
    if op.before is not None:
        sibling = store.node(op.before)
        if sibling.parent is not old_parent:
            raise UpdateError(f"{op.before} is not a child of {op.parent}")
        index = children.index(sibling)
    elif op.after is not None:
        sibling = store.node(op.after)
        if sibling.parent is not old_parent:
            raise UpdateError(f"{op.after} is not a child of {op.parent}")
        index = children.index(sibling) + 1
    else:
        index = len(children)
    if any(c.kind is NodeKind.ATTRIBUTE for c in children[index:]):
        raise UpdateError(
            "cannot insert an element before an attribute of its parent"
        )

    if index == len(children):
        component = (
            component_after(children[-1].pbn.components[-1]) if children else 1
        )
    elif index == 0:
        component = component_before(children[0].pbn.components[-1])
    else:
        component = component_between(
            children[index - 1].pbn.components[-1],
            children[index].pbn.components[-1],
        )

    # Splice coordinates against the old spans.
    parent_entry = store.value_index.lookup(op.parent)
    self_closing = parent_entry.content_start == parent_entry.end
    tag = old_parent.name
    if self_closing:
        cut_start, cut_end = parent_entry.end - 2, parent_entry.end
        replacement = ">" + fragment_text + f"</{tag}>"
        fragment_base = cut_start + 1
    else:
        if op.before is not None:
            position = store.value_index.lookup(op.before).start
        elif op.after is None:
            position = parent_entry.content_end
        elif sibling.kind is NodeKind.ATTRIBUTE:
            # After the last attribute: its span ends inside the start
            # tag; the first content child starts where the content does.
            position = parent_entry.content_start
        else:
            position = store.value_index.lookup(op.after).end
        cut_start = cut_end = position
        replacement = fragment_text
        fragment_base = position

    # Mutate a copy of the tree.
    guide, guide_map = store.guide.copy()
    document, node_by_key, type_of_node = _copy_tree(store, guide_map)
    new_parent = node_by_key[op.parent.components]
    new_parent.children.insert(index, fragment_root)
    fragment_root.parent = new_parent
    _number_subtree(fragment_root, Pbn(*op.parent.components, component))

    overrides = {}
    if self_closing:
        content_start = cut_start + 1
        content_end = content_start + len(fragment_text)
        overrides[old_parent] = (
            parent_entry.start,
            content_end + len(tag) + 3,
            content_start,
            content_end,
        )

    return _derive(
        _Derivation(
            store=store,
            site=fragment_root.pbn,
            document=document,
            node_by_key=node_by_key,
            type_of_node=type_of_node,
            guide=guide,
            guide_map=guide_map,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=replacement,
            ancestors=_ancestor_chain(old_parent),
            overrides=overrides,
            inserted=[
                (node, s + fragment_base, e + fragment_base,
                 cs + fragment_base, ce + fragment_base)
                for node, s, e, cs, ce in fragment_records
            ],
            text_added=[
                (node.value, node.pbn.components)
                for node, *_ in fragment_records
                if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE)
            ],
        )
    )


def _number_subtree(node: Node, number: Pbn) -> None:
    node.pbn = number
    for ordinal, child in enumerate(node.children, start=1):
        _number_subtree(child, number.child(ordinal))


# ---------------------------------------------------------------------------
# delete
# ---------------------------------------------------------------------------


def _apply_delete(store: DocumentStore, op: DeleteSubtree) -> MutationResult:
    old_target = store.node(op.target)
    if len(op.target.components) == 1:
        raise UpdateError(f"cannot delete root {op.target}")
    old_parent = old_target.parent
    entry = store.value_index.lookup(op.target)

    overrides = {}
    if old_target.kind is NodeKind.ATTRIBUTE:
        # The attribute plus its preceding space inside the start tag.
        cut_start, cut_end = entry.start - 1, entry.end
        replacement = ""
    else:
        content = [
            c for c in old_parent.children if c.kind is not NodeKind.ATTRIBUTE
        ]
        if len(content) == 1 and content[0] is old_target:
            # Last content child: the parent collapses to self-closing.
            parent_entry = store.value_index.lookup(old_parent.pbn)
            cut_start = parent_entry.content_start - 1  # the '>' of the start tag
            cut_end = parent_entry.end
            replacement = "/>"
            collapsed = cut_start + 2
            overrides[old_parent] = (
                parent_entry.start,
                collapsed,
                collapsed,
                collapsed,
            )
        else:
            cut_start, cut_end = entry.start, entry.end
            replacement = ""

    guide, guide_map = store.guide.copy()
    document, node_by_key, type_of_node = _copy_tree(
        store, guide_map, skip=old_target
    )

    return _derive(
        _Derivation(
            store=store,
            site=op.target,
            document=document,
            node_by_key=node_by_key,
            type_of_node=type_of_node,
            guide=guide,
            guide_map=guide_map,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=replacement,
            ancestors=_ancestor_chain(old_parent),
            overrides=overrides,
            deleted=old_target,
            text_removed=[
                (node.value, node.pbn.components)
                for node in old_target.iter_subtree()
                if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE)
            ],
        )
    )


# ---------------------------------------------------------------------------
# replace text
# ---------------------------------------------------------------------------


def _apply_replace(store: DocumentStore, op: ReplaceText) -> MutationResult:
    old_target = store.node(op.target)
    entry = store.value_index.lookup(op.target)
    comps = op.target.components

    if old_target.kind is NodeKind.TEXT:
        escaped = escape_text(op.text)
        cut_start, cut_end = entry.start, entry.end
        overrides = {
            old_target: (
                entry.start,
                entry.start + len(escaped),
                entry.start,
                entry.start + len(escaped),
            )
        }
    elif old_target.kind is NodeKind.ATTRIBUTE:
        escaped = escape_attribute(op.text)
        cut_start, cut_end = entry.content_start, entry.content_end
        overrides = {
            old_target: (
                entry.start,
                entry.content_start + len(escaped) + 1,
                entry.content_start,
                entry.content_start + len(escaped),
            )
        }
    else:
        raise UpdateError(
            f"replace target {op.target} is not a text or attribute node"
        )

    guide, guide_map = store.guide.copy()
    document, node_by_key, type_of_node = _copy_tree(store, guide_map)
    node_by_key[comps].value = op.text  # type: ignore[attr-defined]

    result = _derive(
        _Derivation(
            store=store,
            site=op.target,
            document=document,
            node_by_key=node_by_key,
            type_of_node=type_of_node,
            guide=guide,
            guide_map=guide_map,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=escaped,
            ancestors=_ancestor_chain(old_target.parent),
            overrides=overrides,
            text_removed=[(old_target.value, comps)],  # type: ignore[attr-defined]
            text_added=[(op.text, comps)],
        )
    )
    touched = set(result.touched_paths)
    touched.add(store.type_of(old_target).path)
    return MutationResult(
        store=result.store,
        touched_paths=frozenset(touched),
        minted=result.minted,
        removed=result.removed,
    )


# ---------------------------------------------------------------------------
# verification (test / recovery aid)
# ---------------------------------------------------------------------------


def verify_store(store: DocumentStore) -> None:
    """Cross-check a derived store's invariants (O(document)).

    Asserts the heap equals the tree's canonical serialization and every
    value-index span matches; used by the fault-injection tests and
    available to callers who want paranoia after recovery.

    :raises StorageError: on any mismatch.
    """
    text, records = _serialize_with_spans(store.document)
    if store.heap.read_all() != text:
        raise StorageError("derived heap does not match the document tree")
    indexed = list(store.value_index.items())
    if not len(indexed) == len(store.value_index) == len(records):
        raise StorageError("value index entry count does not match the tree")
    for (key, entry), (node, s, e, cs, ce) in zip(indexed, records):
        if key != encode_key(node.pbn) or (
            entry.start,
            entry.end,
            entry.content_start,
            entry.content_end,
        ) != (s, e, cs, ce):
            raise StorageError(f"value entry for {node.pbn} does not match the tree")
        if store._node_by_key.get(node.pbn.components) is not node:
            raise StorageError(f"node map entry for {node.pbn} is stale")
