"""AST of parsed vDataGuide specifications, and the resolved virtual guide.

Two layers live here:

* the *syntactic* layer (:class:`SpecNode`, :class:`Star`, :class:`StarStar`)
  produced by the grammar parser, and
* the *resolved* layer (:class:`VGuide` of :class:`VType` nodes) produced by
  :func:`repro.vdataguide.resolve.resolve_spec`, where every virtual type
  points at its original DataGuide type and — after Algorithm 1 runs —
  carries its level array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.dataguide.guide import DataGuide, GuideType
from repro.pbn.number import Pbn


@dataclass
class Star:
    """The ``*`` wildcard: unmentioned children of the enclosing label."""


@dataclass
class StarStar:
    """The ``**`` wildcard: unmentioned descendants (original subtree)."""


@dataclass
class SpecNode:
    """A ``label { ... }`` entry in a specification."""

    label: str
    children: list[Union["SpecNode", Star, StarStar]] = field(default_factory=list)

    def to_text(self) -> str:
        """Render back to specification syntax (normalized whitespace)."""
        if not self.children:
            return self.label
        inner = " ".join(
            "*" if isinstance(c, Star) else "**" if isinstance(c, StarStar) else c.to_text()
            for c in self.children
        )
        return f"{self.label} {{ {inner} }}"


class VType:
    """A type in the resolved virtual hierarchy.

    :ivar original: the original DataGuide type this virtual type denotes
        (the paper's ``originalTypeOf``).
    :ivar parent: parent virtual type, or ``None`` for a virtual root.
    :ivar children: child virtual types in specification order (implicit
        text/attribute types first, matching the data model's sibling order).
    :ivar level: 1-based level in the virtual hierarchy.
    :ivar pbn: the virtual type's own number within the virtual guide, used
        for the type-level conjunct of every Section 5 predicate.
    :ivar level_array: the Algorithm 1 level array shared by every instance
        of this type; ``None`` until :func:`build_level_arrays` runs.
    :ivar lca_length: length of ``lcaTypeOf(original(parent), original)`` —
        the number of leading PBN components a node of this type shares with
        its virtual parent (for a root, its own path length, vacuously).
    :ivar is_text: the original type is the text-node type.
    :ivar is_attribute: the original type is an attribute type.
    """

    __slots__ = (
        "original",
        "parent",
        "children",
        "level",
        "pbn",
        "level_array",
        "lca_length",
        "implicit",
        "is_text",
        "is_attribute",
        "_cuts",
        "_chain",
        "_complete_chain",
    )

    def __init__(self, original: GuideType, parent: Optional["VType"]) -> None:
        self.original = original
        self.parent = parent
        self.children: list[VType] = []
        self.level = 1 if parent is None else parent.level + 1
        self.pbn: Optional[Pbn] = None
        self.level_array: Optional[tuple[int, ...]] = None
        self.lca_length = original.length
        #: True for text/attribute leaves the resolver keeps implicitly
        #: (they are not part of the user's specification).
        self.implicit = False
        # Plain slots, not properties: the value writer and the sibling
        # sort read these once per child per answer.
        self.is_text = original.is_text
        self.is_attribute = original.is_attribute
        self._cuts: Optional[tuple[int, ...]] = None
        self._chain: Optional[tuple["VType", ...]] = None
        self._complete_chain: Optional[bool] = None

    @property
    def name(self) -> str:
        """Label of the virtual type (its original type's own label)."""
        return self.original.name

    def dotted(self) -> str:
        """Virtual path in dotted notation, e.g. ``title.author.name``."""
        names: list[str] = []
        vtype: Optional[VType] = self
        while vtype is not None:
            names.append(vtype.name)
            vtype = vtype.parent
        return ".".join(reversed(names))

    def cuts(self) -> tuple[int, ...]:
        """``cuts()[L-1]`` is the count of PBN components at virtual level
        <= ``L`` — the length of the prefix identifying this type's virtual
        ancestor-or-self at level ``L``.  Derived from the level array
        (which is non-decreasing) and capped at the PBN length."""
        if self._cuts is None:
            if self.level_array is None:
                raise ValueError(f"level array for {self.dotted()} not built yet")
            pbn_length = self.original.length
            counts = []
            for level in range(1, self.level + 1):
                count = sum(1 for entry in self.level_array if entry <= level)
                counts.append(min(count, pbn_length))
            self._cuts = tuple(counts)
        return self._cuts

    def chain(self) -> tuple["VType", ...]:
        """The virtual types on the path from the root down to this type;
        ``chain()[L-1]`` is the ancestor-or-self type at virtual level L."""
        if self._chain is None:
            if self.parent is None:
                self._chain = (self,)
            else:
                self._chain = self.parent.chain() + (self,)
        return self._chain

    def complete_cut(self) -> bool:
        """True iff an instance's key cut to ``lca_length`` names its one
        virtual parent: the parent's original type is a DataGuide ancestor
        of this type's original, so ``lca_length`` is the parent's whole
        key.  A virtual root's cut is complete when it is a physical root
        — its parent, the document node, is then the stored one's image."""
        if self.parent is None:
            return self.original.parent is None
        return self.parent.original.is_ancestor_of(self.original)

    def complete_chain(self) -> bool:
        """True iff every cut below the root of this type's chain is
        complete (:meth:`complete_cut`): each virtual ancestor is the
        instance's own physical ancestor, its key a prefix of the
        instance's — so every instance of the type occurs in the virtual
        document.  Memoized per type and filled in top-down from the
        nearest ancestor that knows, so a chain costs one
        :meth:`complete_cut` per type, not one per type per descendant."""
        if self._complete_chain is None:
            pending = []
            vtype: Optional[VType] = self
            while vtype is not None and vtype._complete_chain is None:
                pending.append(vtype)
                vtype = vtype.parent
            complete = True if vtype is None else vtype._complete_chain
            for vtype in reversed(pending):
                if vtype.parent is not None:
                    complete = complete and vtype.complete_cut()
                vtype._complete_chain = complete
        return self._complete_chain

    def iter_subtree(self) -> Iterator["VType"]:
        stack = [self]
        while stack:
            vtype = stack.pop()
            yield vtype
            stack.extend(reversed(vtype.children))

    def is_guide_ancestor_of(self, other: "VType") -> bool:
        """True iff this virtual type is a proper ancestor of ``other`` in
        the vDataGuide (decided by comparing the types' own PBN numbers)."""
        if self.pbn is None or other.pbn is None:
            raise ValueError("virtual types are not registered in a VGuide")
        return len(self.pbn) < len(other.pbn) and self.pbn.is_prefix_of(other.pbn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VType({self.dotted()} -> {self.original.dotted()})"


class VGuide:
    """A resolved virtual hierarchy over a source DataGuide.

    :ivar source: the original DataGuide.
    :ivar roots: root virtual types in specification order.
    """

    def __init__(self, source: DataGuide) -> None:
        self.source = source
        self.roots: list[VType] = []
        self._by_original: dict[GuideType, list[VType]] = {}

    def register(self, vtype: VType, pbn: Optional[Pbn] = None) -> VType:
        """Attach ``vtype`` to its parent (or the root list) and number it
        (``pbn``: the number, when the caller has it already)."""
        if vtype.parent is None:
            self.roots.append(vtype)
            if pbn is None:
                pbn = Pbn(len(self.roots))
        else:
            vtype.parent.children.append(vtype)
            if pbn is None:
                pbn = vtype.parent.pbn.child(len(vtype.parent.children))  # type: ignore[union-attr]
        vtype.pbn = pbn
        self._by_original.setdefault(vtype.original, []).append(vtype)
        return vtype

    def vtypes_of(self, original: GuideType) -> list[VType]:
        """Every virtual type denoting ``original`` (a node may occupy
        several virtual positions)."""
        return self._by_original.get(original, [])

    def to_spec(self) -> str:
        """Render the resolved hierarchy back to specification syntax
        (normal form: wildcards expanded, implicit leaves omitted, labels
        qualified exactly when a bare name would be ambiguous).

        ``parse_vdataguide(vguide.to_spec(), vguide.source)`` reproduces
        the same virtual structure.
        """
        return " ".join(self._render_spec(root) for root in self.roots)

    def _render_spec(self, vtype: VType) -> str:
        label = vtype.original.name
        try:
            resolved = self.source.resolve_label(label)
        except Exception:
            resolved = None
        if resolved is not vtype.original:
            label = vtype.original.dotted()
        children = [c for c in vtype.children if not c.implicit]
        if not children:
            return label
        inner = " ".join(self._render_spec(child) for child in children)
        return f"{label} {{ {inner} }}"

    def chain_exact(self) -> bool:
        """True iff pairwise vPBN comparisons are *exact* for every
        ancestor/descendant pair of this virtual hierarchy.

        A vPBN ancestor test compares two numbers directly, but the
        materialized hierarchy relates them through a chain of
        *intermediate* instances (``title { author { publisher } }``
        relates a title to a publisher through some author of the same
        book).  When an intermediate's identity is not pinned by the
        descendant's own number — its incoming edge shares fewer
        components than the intermediate's full path
        (``child.lca_length < len(intermediate.original.path)``) — the
        chain is *existential*: the pair is related in the materialized
        tree only if some such intermediate instance exists, which a
        number-only comparison cannot observe (a book with no author
        breaks the title→publisher chain while the numbers still agree).

        When this method returns ``True`` (every intermediate on every
        chain is pinned), Theorem 1 holds exactly; otherwise the
        predicates remain *complete* (every materialized relationship is
        reported) but may over-approximate across broken chains.  The
        query evaluator is unaffected either way — its descendant/ancestor
        steps expand chains level by level.
        """
        for vtype in self.iter_vtypes():
            if vtype.parent is None or not vtype.children:
                continue  # roots and leaves are never strict intermediates
            for child in vtype.children:
                if child.lca_length != vtype.original.length:
                    return False
        return True

    def report(self) -> dict:
        """Information diagnostics for the view (the paper defers loss
        reasoning to other work; this gives users the basic facts):

        * ``dropped`` — original element/text/attribute types with
          instances that appear nowhere in the virtual hierarchy (their
          data is invisible through this view);
        * ``duplicated`` — original types placed at several virtual
          positions (their nodes appear once per position);
        * ``inversions`` — case-2 edges (an original ancestor below its
          descendant);
        * ``chain_exact`` — see :meth:`chain_exact`.
        """
        placed: dict = {}
        inversions = []
        for vtype in self.iter_vtypes():
            placed.setdefault(vtype.original, []).append(vtype)
            if (
                vtype.parent is not None
                and vtype.lca_length == vtype.original.length
            ):
                inversions.append(vtype)
        dropped = [
            guide_type
            for guide_type in self.source.iter_types()
            if guide_type not in placed and guide_type.count > 0
        ]
        duplicated = {
            original: vtypes for original, vtypes in placed.items() if len(vtypes) > 1
        }
        return {
            "placed": placed,
            "dropped": dropped,
            "duplicated": duplicated,
            "inversions": inversions,
            "chain_exact": self.chain_exact(),
        }

    def iter_vtypes(self) -> Iterator[VType]:
        for root in self.roots:
            yield from root.iter_subtree()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_vtypes())
