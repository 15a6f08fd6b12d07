"""vPBN numbers and the virtual axis predicates (paper Section 5).

A vPBN number couples a node's *original* PBN number with the level array of
its virtual type.  Location-based relationships in the virtual hierarchy are
decided from two vPBN numbers alone, just as PBN comparisons decide them in
a physical hierarchy.  Every predicate also carries the paper's type-level
conjunct — the corresponding relationship must hold between the virtual
*types* in the vDataGuide — which is evaluated on the virtual types' own PBN
numbers.

The core number-level primitive is the *guard rule* distilled from the
paper's formulas and worked examples: for every position ``i`` present in
both numbers, ``xa[i] = ya[i]  =>  xn[i] = yn[i]`` — wherever the two level
arrays place a component at the same virtual level, the components must
agree.  Positions whose levels differ carry no constraint (they belong to
different virtual ancestors).  See ``tests/property/test_theorem1.py`` for
the machine-checked equivalence with the materialized virtual hierarchy
(the paper's Theorem 1).

**Duplication caveat.**  A transformation can place one original node at
several virtual positions (an author under each of a book's two titles).
vPBN numbers do not distinguish the copies, so a predicate holds iff *some*
pair of copies is so related in the materialized virtual document — for the
hierarchical axes this is exactly the paper's semantics; for the ordering
axes the predicates compare the copies' shared original components (the
first-copy positions).  Virtual *order* is the first-copy materialized
preorder: the position of a node's first copy in the preorder of the
materialized view.  :func:`compare_virtual_order` agrees with it wherever
it is transitive; on duplicating, sibling-colliding and recursive views
it need not be, so the query engine sorts by a first-copy key instead
(:meth:`repro.query.eval_virtual.VirtualNavigator._order_keys`), and
decides ``following`` / ``preceding`` by that key too; this comparator
and :func:`v_preceding` / :func:`v_following` remain the Section 5
reference the Theorem 1 tests check.
"""

from __future__ import annotations

from repro.errors import NumberingError
from repro.pbn.number import Pbn
from repro.vdataguide.ast import VType


class VPbn:
    """A virtual prefix-based number: an original PBN number plus the level
    array (and identity) of the virtual type the node appears under.

    :ivar number: the node's PBN number in the *original* document.
    :ivar vtype: the virtual type; supplies the level array and the
        type-level relationships.
    """

    __slots__ = ("number", "vtype")

    def __init__(self, number: Pbn, vtype: VType) -> None:
        if vtype.level_array is None:
            raise NumberingError(
                f"virtual type {vtype.dotted()!r} has no level array; "
                "run build_level_arrays first"
            )
        if len(number) != vtype.original.length:
            raise NumberingError(
                f"number {number} has {len(number)} components but type "
                f"{vtype.original.dotted()!r} is at original depth "
                f"{vtype.original.length}"
            )
        self.number = number
        self.vtype = vtype

    @property
    def levels(self) -> tuple[int, ...]:
        """The level array (paper notation: ``xa``)."""
        return self.vtype.level_array  # type: ignore[return-value]

    @property
    def level(self) -> int:
        """The node's virtual level, ``max(xa)`` — the last entry, since
        level arrays are non-decreasing."""
        return self.vtype.level_array[-1]  # type: ignore[index]

    def key_at(self, level: int) -> tuple[int, ...]:
        """Components identifying this node's virtual ancestor-or-self at
        ``level`` (the prefix of the number whose array entries are <=
        ``level``)."""
        return self.number.components[: self.vtype.cuts()[level - 1]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VPbn)
            and self.number == other.number
            and self.vtype is other.vtype
        )

    def __hash__(self) -> int:
        return hash((self.number, id(self.vtype)))

    def __repr__(self) -> str:
        return f"VPbn({self.number} {list(self.levels)} @ {self.vtype.dotted()})"


# ---------------------------------------------------------------------------
# number-level primitives
# ---------------------------------------------------------------------------


def _guard(x: VPbn, y: VPbn) -> bool:
    """The guard rule: equal levels at a shared position force equal
    components there."""
    xn = x.number.components
    yn = y.number.components
    xa = x.levels
    ya = y.levels
    for i in range(min(len(xn), len(yn))):
        if xa[i] == ya[i] and xn[i] != yn[i]:
            return False
    return True


def _same_virtual_tree(x: VPbn, y: VPbn) -> bool:
    """True iff both virtual types belong to the same tree of the vDataGuide
    forest (cross-tree nodes are never location-related)."""
    return x.vtype.pbn.components[0] == y.vtype.pbn.components[0]  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# hierarchical axes
# ---------------------------------------------------------------------------


def v_self(x: VPbn, y: VPbn) -> bool:
    """``vSelf``: same number, same level array, same virtual type."""
    return x.vtype is y.vtype and x.number == y.number


def v_ancestor(x: VPbn, y: VPbn) -> bool:
    """``vAncestor``: x is a virtual (proper) ancestor of y.

    Number level: y is virtually deeper and the guard rule holds.  Type
    level: x's virtual type is a proper ancestor of y's in the vDataGuide.
    """
    return (
        x.vtype.is_guide_ancestor_of(y.vtype)
        and x.level < y.level
        and _guard(x, y)
    )


def v_descendant(x: VPbn, y: VPbn) -> bool:
    """``vDescendant``: x is a virtual (proper) descendant of y."""
    return v_ancestor(y, x)


def v_parent(x: VPbn, y: VPbn) -> bool:
    """``vParent``: x is the virtual parent of y (ancestor one level up,
    with the types in a parent/child edge of the vDataGuide)."""
    return (
        y.vtype.parent is x.vtype
        and x.level + 1 == y.level
        and _guard(x, y)
    )


def v_child(x: VPbn, y: VPbn) -> bool:
    """``vChild``: x is a virtual child of y."""
    return v_parent(y, x)


def v_ancestor_or_self(x: VPbn, y: VPbn) -> bool:
    """``vAncestor-or-self``."""
    return v_self(x, y) or v_ancestor(x, y)


def v_descendant_or_self(x: VPbn, y: VPbn) -> bool:
    """``vDescendant-or-self``."""
    return v_self(x, y) or v_descendant(x, y)


# ---------------------------------------------------------------------------
# ordering axes
# ---------------------------------------------------------------------------


def _compatible(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff one key is a prefix of the other — the two identifying
    prefixes can denote (copies sharing) the same instance."""
    shared = min(len(a), len(b))
    return a[:shared] == b[:shared]


def _stratified_compare(x: VPbn, y: VPbn) -> int:
    """Virtual document order by walking the virtual levels top-down.

    At each level the two nodes' ancestor identities — (virtual type,
    identifying prefix) pairs — are compared.  While the identities can
    denote the same instance (same type, prefix-compatible keys) the walk
    descends; at the first level they cannot, the two ancestors are
    virtual *siblings* under a shared parent and sibling order decides:
    attributes first (the data model's sibling invariant), then original
    document order of the identifying prefixes (Section 5.1: virtual
    sibling order preserves document order), then vDataGuide type order as
    the final tie-break for equal-numbered copies.
    """
    xn = x.number.components
    yn = y.number.components
    if x.vtype is y.vtype:
        # Identical level arrays: every identifying prefix aligns
        # positionally, so plain component order decides directly.
        if xn == yn:
            return 0
        return -1 if xn < yn else 1
    chain_x = x.vtype.chain()
    chain_y = y.vtype.chain()
    cuts_x = x.vtype.cuts()
    cuts_y = y.vtype.cuts()
    for level in range(1, min(x.level, y.level) + 1):
        tx = chain_x[level - 1]
        ty = chain_y[level - 1]
        kx = xn[: cuts_x[level - 1]]
        ky = yn[: cuts_y[level - 1]]
        if tx is ty and _compatible(kx, ky):
            continue  # same ancestor instance (or shareable copies)
        if tx.is_attribute != ty.is_attribute:
            return -1 if tx.is_attribute else 1
        if kx != ky:
            return -1 if kx < ky else 1  # prefix-first lexicographic
        # Equal keys.  A key may still be *incomplete* — shorter than the
        # ancestor type's full path, hence denoting any extension of it.
        # A completely identified sibling is a prefix of every extension
        # and sorts first (prefix-first document order).
        complete_x = len(kx) >= tx.original.length
        complete_y = len(ky) >= ty.original.length
        if complete_x != complete_y:
            return -1 if complete_x else 1
        return -1 if tx.pbn < ty.pbn else 1  # type: ignore[operator]
    # Identities agree on every shared level without an ancestor
    # relationship (possible across broken chains): deterministic fallback.
    if x.level != y.level:
        return -1 if x.level < y.level else 1
    if x.number.components != y.number.components:
        return -1 if x.number.components < y.number.components else 1
    return -1 if x.vtype.pbn < y.vtype.pbn else 1  # type: ignore[operator]


def v_preceding(x: VPbn, y: VPbn) -> bool:
    """``vPreceding``: x comes before y in virtual document order and is
    neither an ancestor nor a descendant of y (XPath ``preceding``
    semantics — ancestors precede in document order but are excluded from
    the axis, and descendants always follow)."""
    if not _same_virtual_tree(x, y):
        return x.vtype.pbn.components[0] < y.vtype.pbn.components[0]  # type: ignore[union-attr]
    xn = x.number.components
    yn = y.number.components
    if x.vtype is y.vtype:
        return xn < yn  # same arrays: plain component order, never kin
    # Fast path: the numbers diverge at a position both arrays place at
    # the same virtual level, below identical ancestor-type chains — the
    # diverging sibling ordinals decide, and no ancestor relationship can
    # survive the violated guard.
    xa = x.levels
    ya = y.levels
    for i in range(min(len(xn), len(yn))):
        if xn[i] != yn[i]:
            if xa[: i + 1] == ya[: i + 1]:
                level = xa[i]
                if x.vtype.chain()[level - 1] is y.vtype.chain()[level - 1]:
                    return xn[i] < yn[i]
            break
    if v_self(x, y) or v_ancestor(x, y) or v_ancestor(y, x):
        return False
    return _stratified_compare(x, y) < 0


def v_following(x: VPbn, y: VPbn) -> bool:
    """``vFollowing``: x comes after y in virtual document order and is not
    a virtual descendant of y."""
    return v_preceding(y, x)


# ---------------------------------------------------------------------------
# sibling axes
# ---------------------------------------------------------------------------


def _virtual_siblings(x: VPbn, y: VPbn) -> bool:
    """Same virtual level, same parent virtual type, and a shared parent
    instance (the parent-identifying prefixes are consistent).  Virtual
    roots — of any tree of the virtual forest — are siblings under the
    document node."""
    if x.vtype.is_attribute or y.vtype.is_attribute:
        return False  # attributes have no siblings (XPath convention)
    px = x.vtype.parent
    py = y.vtype.parent
    if px is None and py is None:
        return True
    if px is None or py is None or px is not py:
        return False
    kx = x.vtype.cuts()[px.level - 1]
    ky = y.vtype.cuts()[py.level - 1]
    shared = min(kx, ky)
    return x.number.components[:shared] == y.number.components[:shared]


def v_preceding_sibling(x: VPbn, y: VPbn) -> bool:
    """``vPreceding-sibling``: x and y share a virtual parent and x comes
    first in virtual sibling order."""
    if v_self(x, y) or not _virtual_siblings(x, y):
        return False
    if not _same_virtual_tree(x, y):
        return x.vtype.pbn.components[0] < y.vtype.pbn.components[0]  # type: ignore[union-attr]
    return _stratified_compare(x, y) < 0


def v_following_sibling(x: VPbn, y: VPbn) -> bool:
    """``vFollowing-sibling``: x and y share a virtual parent and x comes
    later in virtual sibling order."""
    return v_preceding_sibling(y, x)


#: Dispatch table mirroring :data:`repro.pbn.axes.AXIS_PREDICATES` for the
#: virtual hierarchy: ``VIRTUAL_AXIS_PREDICATES[axis](x, y)`` answers
#: "is x on this axis of context node y?".
VIRTUAL_AXIS_PREDICATES = {
    "self": v_self,
    "parent": v_parent,
    "child": v_child,
    "ancestor": v_ancestor,
    "ancestor-or-self": v_ancestor_or_self,
    "descendant": v_descendant,
    "descendant-or-self": v_descendant_or_self,
    "preceding": v_preceding,
    "following": v_following,
    "preceding-sibling": v_preceding_sibling,
    "following-sibling": v_following_sibling,
}


def compare_virtual_order(x: VPbn, y: VPbn) -> int:
    """Three-way virtual document order comparison.

    Ancestors precede their descendants (preorder); otherwise the
    level-stratified comparison (:func:`_stratified_compare`) decides —
    the first virtual level where the two ancestor identities must differ
    orders the siblings there.
    """
    if x.vtype is y.vtype and x.number == y.number:
        return 0
    if not _same_virtual_tree(x, y):
        return -1 if x.vtype.pbn.components[0] < y.vtype.pbn.components[0] else 1  # type: ignore[union-attr]
    # Same fast path as v_preceding: an aligned-level divergence under a
    # shared ancestor-type chain decides, and rules out kinship.
    xn = x.number.components
    yn = y.number.components
    xa = x.levels
    ya = y.levels
    for i in range(min(len(xn), len(yn))):
        if xn[i] != yn[i]:
            if xa[: i + 1] == ya[: i + 1]:
                level = xa[i]
                if x.vtype.chain()[level - 1] is y.vtype.chain()[level - 1]:
                    return -1 if xn[i] < yn[i] else 1
            break
    if v_ancestor(x, y):
        return -1
    if v_ancestor(y, x):
        return 1
    return _stratified_compare(x, y)
