"""Resolution of a parsed specification against the original DataGuide.

Resolution turns the syntactic forest into a :class:`VGuide` of
:class:`VType` nodes, applying these rules:

* **Labels** resolve by suffix match against original type paths
  (``x.y`` qualifies; a bare name matches any path ending in it).  When a
  bare label is ambiguous, the candidate sharing the *deepest* least common
  ancestor with the enclosing entry's original type wins — so ``year``
  inside ``author { article { ... year ... } }`` means the article's year,
  not the inproceedings'.  Remaining ties raise
  :class:`~repro.errors.SpecResolutionError` and want a qualified label.
* ``*`` expands to the *children* of the enclosing label's original type
  that are not mentioned (by explicit label) anywhere else in the
  specification, as leaf virtual types.
* ``**`` expands to the unmentioned *descendants*, reproducing the original
  subtree shape below the enclosing label (so ``root { ** }`` is the
  identity transformation).  Explicitly mentioned types are pruned together
  with their subtrees — their placement is wherever the spec put them.
* **Implicit leaves**: every virtual type keeps the text (``#text``) and
  attribute children its original type has, even when the spec does not
  mention them — the paper's Figure 7(b) keeps ``title``'s text node for
  the spec ``title { author { name } }``.  Wildcard expansion includes them
  naturally; explicit entries get them prepended.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SpecResolutionError
from repro.dataguide.guide import DataGuide, GuideType
from repro.vdataguide.ast import SpecNode, Star, VGuide, VType


def resolve_spec(entries: list[SpecNode], guide: DataGuide) -> VGuide:
    """Resolve a parsed specification into a virtual guide.

    :raises SpecResolutionError: for unknown or (even contextually)
        ambiguous labels.
    """
    resolution = _resolve_labels(entries, guide)
    mentioned = set(resolution.values())
    vguide = VGuide(guide)
    for entry in entries:
        _build_entry(entry, None, vguide, mentioned, resolution)
    return vguide


def identity_vguide(guide: DataGuide) -> VGuide:
    """``root { ** }`` for every root of ``guide``: the virtual hierarchy
    that *is* the stored one — every virtual type mirrors its original,
    every edge a real parent/child edge.  Built from the types themselves
    in the guide's own child order, so the vDataGuide numbers its types as
    the DataGuide does, and Algorithm 1 is closed-form on it: a type at
    level ``n`` (its original's depth) has the level array ``(1, ..., n)``
    and shares its parent's whole key, ``n - 1`` components.  No label is
    resolved and no number computed — a store builds this per version."""
    vguide = VGuide(guide)
    stack: list = [(root, None) for root in reversed(guide.roots)]
    while stack:
        original, parent = stack.pop()
        vtype = vguide.register(VType(original, parent), original.pbn)
        vtype.level_array = tuple(range(1, vtype.level + 1))
        if parent is not None:
            vtype.lca_length = parent.original.length
        stack.extend((child, vtype) for child in reversed(original.children))
    return vguide


def _resolve_labels(
    entries: list[SpecNode], guide: DataGuide
) -> dict[int, GuideType]:
    """First pass: map every explicit spec entry (by identity) to its
    original type, resolving bare labels against the enclosing context."""
    resolution: dict[int, GuideType] = {}

    def walk(node: SpecNode, parent: Optional[GuideType]) -> None:
        original = _resolve_contextual(guide, node.label, parent)
        resolution[id(node)] = original
        for child in node.children:
            if isinstance(child, SpecNode):
                walk(child, original)

    for entry in entries:
        walk(entry, None)
    return resolution


def _resolve_contextual(
    guide: DataGuide, label: str, parent: Optional[GuideType]
) -> GuideType:
    parts = tuple(label.split("."))
    exact = guide.lookup_path(parts)
    if exact is not None:
        return exact
    if len(parts) == 1:
        candidates = guide.types_named(parts[0])
    else:
        candidates = [
            t for t in guide.types_named(parts[-1]) if t.path[-len(parts) :] == parts
        ]
    if not candidates:
        raise SpecResolutionError(f"label {label!r} names no type in the DataGuide")
    if len(candidates) == 1:
        return candidates[0]
    if parent is not None:
        # Prefer the candidate most closely related to the enclosing type.
        def lca_depth(candidate: GuideType) -> int:
            lca = guide.lca_type_of(parent, candidate)
            return 0 if lca is None else lca.length

        best = max(lca_depth(c) for c in candidates)
        closest = [c for c in candidates if lca_depth(c) == best]
        if len(closest) == 1:
            return closest[0]
        candidates = closest
    options = ", ".join(t.dotted() for t in candidates)
    raise SpecResolutionError(
        f"label {label!r} is ambiguous; qualify it (candidates: {options})"
    )


def _build_entry(
    entry: SpecNode,
    parent: VType | None,
    vguide: VGuide,
    mentioned: set[GuideType],
    resolution: dict[int, GuideType],
) -> VType:
    vtype = vguide.register(VType(resolution[id(entry)], parent))
    _attach_implicit_leaves(vtype, vguide)
    for child in entry.children:
        if isinstance(child, SpecNode):
            _build_entry(child, vtype, vguide, mentioned, resolution)
        elif isinstance(child, Star):
            _expand_star(vtype, vguide, mentioned, recursive=False)
        else:
            _expand_star(vtype, vguide, mentioned, recursive=True)
    return vtype


def _attach_implicit_leaves(vtype: VType, vguide: VGuide) -> None:
    """Keep the original type's text and attribute children implicitly."""
    for child in vtype.original.children:
        if child.is_text or child.is_attribute:
            leaf = vguide.register(VType(child, vtype))
            leaf.implicit = True


def _expand_star(
    vtype: VType,
    vguide: VGuide,
    mentioned: set[GuideType],
    recursive: bool,
) -> None:
    """Expand ``*`` (children) or ``**`` (descendant subtrees) under
    ``vtype``."""
    for child in vtype.original.children:
        if child.is_text or child.is_attribute:
            continue  # already attached implicitly
        if child in mentioned:
            continue  # placed explicitly elsewhere in the spec
        child_vtype = vguide.register(VType(child, vtype))
        _attach_implicit_leaves(child_vtype, vguide)
        if recursive:
            _mirror_subtree(child_vtype, vguide, mentioned)


def _mirror_subtree(vtype: VType, vguide: VGuide, mentioned: set[GuideType]) -> None:
    """Reproduce the original subtree shape below ``vtype`` (for ``**``),
    registering in preorder off an explicit stack: the subtree is as deep
    as the document."""

    def unmentioned(parent: VType) -> list:
        return [
            (child, parent)
            for child in reversed(parent.original.children)
            if not (child.is_text or child.is_attribute) and child not in mentioned
        ]

    stack = unmentioned(vtype)
    while stack:
        original, parent = stack.pop()
        child_vtype = vguide.register(VType(original, parent))
        _attach_implicit_leaves(child_vtype, vguide)
        stack.extend(unmentioned(child_vtype))
