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

* **node tree** — *path-copied*: new nodes only for the elements from
  the document down to the mutation site's parent, plus the replaced leaf
  or the inserted fragment; every other subtree is shared by reference
  with the previous version (:func:`_copy_path`).  The two per-node maps
  (number -> node, node -> Type ID) are one ``dict.copy()`` each plus
  the path's edits.

Sharing is sound because identity and upward navigation of a stored node
never read its ``parent`` pointer: its parent in a version is the node
under its number truncated (:meth:`DocumentStore.parent_of`), and an
engine finds a node's store through the lineage token every version of
a document shares (:attr:`~repro.xmlmodel.nodes.Document.lineage`), so a
``parent`` walk may end at any version's document.  The copied elements
adopt the children they share (their ``parent`` is repointed to the
copy), so a retired version's path is not kept alive by the nodes it
shares with its successors.  Everything an update costs — tree, heap
pages, index pages, posting lists — is in proportion to the change, but
for the two map copies and the guide copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StorageError, UpdateError
from repro.obs.trace import span
from repro.pbn.codec import decode_key, encode_key
from repro.pbn.number import Pbn
from repro.storage.store import DocumentStore, Indexed, index_tree
from repro.storage.heap import HeapFile
from repro.storage.value_index import ValueEntry
from repro.updates.careting import (
    component_after,
    component_before,
    component_between,
)
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText, UpdateOp
from repro.xmlmodel.nodes import Document, Element, Node, NodeKind
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
    :ivar copied: nodes allocated for the new version — the copied path
        below the document, a replaced leaf, the inserted fragment; every
        other node of it is the previous version's.
    """

    store: DocumentStore
    touched_paths: frozenset
    minted: tuple = ()
    removed: tuple = ()
    copied: int = 0


def apply_op(store: DocumentStore, op: UpdateOp) -> MutationResult:
    """Derive the next store version from ``store`` and ``op``.

    Pure with respect to ``store``: on any error the input is unchanged
    and no new version exists.

    :raises UpdateError: for operations invalid against this version.
    :raises StorageError: for numbers that do not exist in this version.
    """
    with span("update.derive", op.describe()) as derive_span:
        if isinstance(op, InsertSubtree):
            result = _apply_insert(store, op)
        elif isinstance(op, DeleteSubtree):
            result = _apply_delete(store, op)
        elif isinstance(op, ReplaceText):
            result = _apply_replace(store, op)
        else:
            raise UpdateError(f"unknown update operation {op!r}")
        derive_span.set("copied", result.copied)
        derive_span.set("shared", len(result.store._node_by_key) - result.copied)
        return result


# ---------------------------------------------------------------------------
# path copying
# ---------------------------------------------------------------------------


@dataclass
class _Path:
    """The new version's copies of one root-to-node path, the document
    first, and the new version's two maps."""

    chain: list
    node_by_key: dict
    type_of_node: dict

    @property
    def node(self) -> Node:
        """The copy of the path's last node (the document if empty)."""
        return self.chain[-1]


def _copy_path(store: DocumentStore, components: tuple) -> _Path:
    """Copy the elements from ``store``'s document down to the node
    numbered ``components`` (the document alone for ``()``); every other
    node stays shared.  The maps are copied whole and re-pointed at the
    copies.  Twins are made with ``object.__new__`` and their slots filled
    directly (the constructors would re-validate names and mint a fresh
    lineage)."""
    old_map = store._node_by_key
    node_by_key = old_map.copy()
    type_of_node = store._type_of_node.copy()
    new = object.__new__
    old = store.document
    twin = new(Document)
    twin.parent = twin.pbn = None
    twin.uri, twin.lineage = old.uri, old.lineage
    twin._children = list(old._children)
    chain = [twin]
    for length in range(1, len(components) + 1):
        key = components[:length]
        old_child = old_map[key]
        copy = new(Element)
        copy.tag, copy.pbn, copy.parent = old_child.tag, old_child.pbn, twin
        copy._children = list(old_child._children)
        siblings = twin._children
        siblings[siblings.index(old_child)] = copy
        node_by_key[key] = copy
        type_of_node[copy] = type_of_node.pop(old_child)
        chain.append(copy)
        twin = copy
    return _Path(chain, node_by_key, type_of_node)


def _adopt(path: _Path) -> None:
    """Point every child of a copied node at the copy, once the path's
    edit is made (see the module docstring)."""
    for copy in path.chain:
        for child in copy._children:
            child.parent = copy


# ---------------------------------------------------------------------------
# the shared derivation core
# ---------------------------------------------------------------------------


@dataclass
class _Derivation:
    """Everything one splice-shaped mutation needs to derive the next
    version's structures.  Nodes named here are the *old* version's."""

    store: DocumentStore
    site: Pbn  # where it happens: inserted root, deleted root, replaced leaf
    path: _Path  # already-mutated; an inserted fragment is in its maps
    guide: object
    types_by_id: list  # the new version's, in the copied guide
    cut_start: int
    cut_end: int
    replacement: str
    ancestors: list  # nodes whose spans stretch around the cut
    overrides: dict = field(default_factory=dict)  # node -> (s, e, cs, ce)
    deleted: Optional[Node] = None  # root of the dropped subtree
    inserted: Optional[Indexed] = None  # the indexed fragment
    minted: list = field(default_factory=list)  # its nodes, document order
    text_removed: list = field(default_factory=list)  # (value, comps)
    text_added: list = field(default_factory=list)
    leaf: int = 0  # 1 when a replaced leaf was allocated


def _derive(base: _Derivation) -> MutationResult:
    store = base.store
    delta = len(base.replacement) - (base.cut_end - base.cut_start)
    heap = HeapFile.splice(
        store.heap, base.cut_start, base.cut_end, base.replacement
    )

    # Type table: identical ids for surviving types, a fragment's new
    # types appended (by the walk that indexed it).
    types_by_id = base.types_by_id

    node_by_key, type_of_node = base.path.node_by_key, base.path.type_of_node
    removed_pairs: list[tuple[Pbn, int]] = []
    touched_type_ids: set[int] = set()
    touched_paths: set[tuple] = set()
    if base.deleted is not None:
        for node in base.deleted.iter_subtree():
            del node_by_key[node.pbn.components]
            type_id = type_of_node.pop(node)
            removed_pairs.append((node.pbn, type_id))
            touched_type_ids.add(type_id)
            touched_paths.add(types_by_id[type_id].path)
            types_by_id[type_id].count -= 1
    # Types whose *string values* change although their postings do not:
    # every surviving override/ancestor node stretches or rewrites its
    # value, which invalidates its type's CAS columns even though the
    # structural type index keeps them untouched.
    old_types = store._type_of_node
    cas_touched = {old_types[node] for node in (*base.ancestors, *base.overrides)}

    inserted_items: list[tuple[bytes, ValueEntry]] = []
    if base.inserted is not None:
        inserted_items = list(zip(base.inserted.keys, base.inserted.entries))
        for type_id in base.inserted.postings:
            touched_type_ids.add(type_id)
            touched_paths.add(types_by_id[type_id].path)

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
    for node in base.minted:
        type_index.insert(type_of_node[node], node.pbn)

    text_index = store._text_index
    if text_index is not None and (base.text_removed or base.text_added):
        text_index = text_index.derived(
            base.text_removed, base.text_added, store.stats
        )

    derived = DocumentStore.from_parts(
        document=base.path.chain[0],
        guide=base.guide,
        types_by_id=types_by_id,
        page_manager=store.page_manager,
        buffer_pool=store.buffer_pool,
        heap=heap,
        value_index=value_index,
        type_index=type_index,
        node_by_key=node_by_key,
        type_of_node=type_of_node,
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
        minted=tuple(node.pbn for node in base.minted),
        removed=tuple(number for number, _ in removed_pairs),
        copied=len(base.path.chain) - 1 + base.leaf + len(base.minted),
    )


def _copy_guide(store: DocumentStore) -> tuple:
    """A copy of ``store``'s guide for the next version, and that
    version's types by Type ID (the ids stay; the copy's types)."""
    guide, mapping = store.guide.copy()
    return guide, [mapping[guide_type] for guide_type in store.types_by_id]


def _ancestor_chain(store: DocumentStore, node: Node) -> list:
    """``node`` and every ancestor element in ``store``'s version, found
    by number."""
    components = node.pbn.components
    return [
        store._node_by_key[components[:length]]
        for length in range(len(components), 0, -1)
    ]


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

    # Position among the (old) children; minting uses sibling components.
    children = old_parent.children
    if op.before is not None:
        sibling = store.node(op.before)
        if store.parent_of(sibling) is not old_parent:
            raise UpdateError(f"{op.before} is not a child of {op.parent}")
        index = children.index(sibling)
    elif op.after is not None:
        sibling = store.node(op.after)
        if store.parent_of(sibling) is not old_parent:
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
        fragment_base = position

    # Mutate a copy of the path down to the parent; the walk numbers,
    # types, writes and keys the fragment into the new version's maps.
    guide, types_by_id = _copy_guide(store)
    path = _copy_path(store, op.parent.components)
    path.node.children.insert(index, fragment_root)
    _adopt(path)
    fragment = index_tree(
        [fragment_root],
        guide,
        types_by_id,
        path.node_by_key,
        path.type_of_node,
        parent=(
            op.parent.components,
            encode_key(op.parent),
            store._type_of_node[old_parent],
        ),
        first=component,
        offset=fragment_base,
    )
    minted = list(fragment_root.iter_subtree())

    overrides = {}
    if self_closing:
        replacement = ">" + fragment.text + f"</{tag}>"
        content_start = cut_start + 1
        content_end = content_start + len(fragment.text)
        overrides[old_parent] = (
            parent_entry.start,
            content_end + len(tag) + 3,
            content_start,
            content_end,
        )
    else:
        replacement = fragment.text

    return _derive(
        _Derivation(
            store=store,
            site=fragment_root.pbn,
            path=path,
            guide=guide,
            types_by_id=types_by_id,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=replacement,
            ancestors=_ancestor_chain(store, old_parent),
            overrides=overrides,
            inserted=fragment,
            minted=minted,
            text_added=[
                (node.value, node.pbn.components)
                for node in minted
                if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE)
            ],
        )
    )


# ---------------------------------------------------------------------------
# delete
# ---------------------------------------------------------------------------


def _apply_delete(store: DocumentStore, op: DeleteSubtree) -> MutationResult:
    old_target = store.node(op.target)
    if len(op.target.components) == 1:
        raise UpdateError(f"cannot delete root {op.target}")
    old_parent = store.parent_of(old_target)
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

    guide, types_by_id = _copy_guide(store)
    path = _copy_path(store, op.target.components[:-1])
    path.node.children.remove(old_target)
    _adopt(path)

    return _derive(
        _Derivation(
            store=store,
            site=op.target,
            path=path,
            guide=guide,
            types_by_id=types_by_id,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=replacement,
            ancestors=_ancestor_chain(store, old_parent),
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
    if old_target.kind is NodeKind.TEXT and not op.text:
        # A parse of the bytes has no zero-length text node (``<n></n>``
        # reads back as ``<n/>``): emptying a text deletes it.
        return _apply_delete(store, DeleteSubtree(target=op.target))
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

    guide, types_by_id = _copy_guide(store)
    path = _copy_path(store, comps[:-1])
    leaf = object.__new__(type(old_target))
    if old_target.kind is NodeKind.ATTRIBUTE:
        leaf.attr_name = old_target.attr_name  # type: ignore[attr-defined]
    leaf.value, leaf.pbn = op.text, old_target.pbn  # type: ignore[attr-defined]
    siblings = path.node.children
    siblings[siblings.index(old_target)] = leaf
    path.node_by_key[comps] = leaf
    path.type_of_node[leaf] = path.type_of_node.pop(old_target)
    _adopt(path)

    result = _derive(
        _Derivation(
            store=store,
            site=op.target,
            path=path,
            guide=guide,
            types_by_id=types_by_id,
            cut_start=cut_start,
            cut_end=cut_end,
            replacement=escaped,
            ancestors=_ancestor_chain(store, store.parent_of(old_target)),
            overrides=overrides,
            text_removed=[(old_target.value, comps)],  # type: ignore[attr-defined]
            text_added=[(op.text, comps)],
            leaf=1,
        )
    )
    touched = set(result.touched_paths)
    touched.add(store.type_of(old_target).path)
    return MutationResult(
        store=result.store,
        touched_paths=frozenset(touched),
        minted=result.minted,
        removed=result.removed,
        copied=result.copied,
    )


# ---------------------------------------------------------------------------
# verification (test / recovery aid)
# ---------------------------------------------------------------------------


def verify_store(store: DocumentStore) -> None:
    """Cross-check a derived store's invariants (O(document)).

    Indexes the store's tree afresh (:func:`index_tree`, against a copy
    of its guide with the counts cleared) and asserts the heap equals the
    walk's text, the value index holds the walk's keys and spans, the
    node map and the node -> Type ID map are the walk's, every guide
    count is right, and the parent relation by number is the tree's:
    every node is a child of :meth:`~DocumentStore.parent_of` it (the
    document, for a root element).  Used by the fault-injection tests and
    available to callers who want paranoia after recovery.

    :raises StorageError: on any mismatch.
    """
    guide, types_by_id = _copy_guide(store)
    for guide_type in guide.iter_types():
        guide_type.count = 0
    node_by_key: dict = {}
    type_of_node: dict = {}
    fresh = index_tree(
        store.document.children, guide, types_by_id, node_by_key, type_of_node
    )
    if store.heap.read_all() != fresh.text:
        raise StorageError("derived heap does not match the document tree")
    indexed = list(store.value_index.items())
    if not len(indexed) == len(store.value_index) == len(fresh.keys):
        raise StorageError("value index entry count does not match the tree")
    for (key, entry), fresh_key, fresh_entry in zip(indexed, fresh.keys, fresh.entries):
        if key != fresh_key or entry != fresh_entry:
            raise StorageError(
                f"value entry for {decode_key(fresh_key)} does not match the tree"
            )
    if node_by_key != store._node_by_key:
        raise StorageError("node map does not match the tree")
    if type_of_node != store._type_of_node or len(types_by_id) != len(
        store.types_by_id
    ):
        raise StorageError("node types do not match the tree")
    for guide_type, fresh_type in zip(store.types_by_id, types_by_id):
        if guide_type.count != fresh_type.count:
            raise StorageError(f"guide count of {guide_type.dotted()} is stale")
    for parent in (store.document, *node_by_key.values()):
        for child in parent.children:
            if store.parent_of(child) is not parent:
                raise StorageError(f"the parent of {child.pbn} by number does not hold it")
