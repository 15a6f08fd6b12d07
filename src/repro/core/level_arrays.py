"""Algorithm 1: building the type -> level-array map.

A *level array* locates each component of a node's original PBN number in
the virtual hierarchy: entry ``i`` is the virtual level that component ``i``
belongs to.  One array serves every node of a virtual type (Section 5.2), so
this module computes a map over the vDataGuide, never touching data nodes.

The paper's three cases collapse to two once ``k = length(lcaTypeOf(
original(parent), original(child)))`` is in hand (``s`` is the child's
original path length, ``n`` its virtual level, ``L`` the parent's array):

* ``s > k`` — the child's original type lies strictly below the least common
  ancestor type (paper cases 1 and 3: a descendant moved up to be a child,
  or two types related through an lca).  The components above the lca keep
  the parent's levels; every component below it sits at level ``n``::

      array = L[:k] + [n] * (s - k)

* ``s == k`` — the child's original type *is* the lca, i.e. it is an
  original ancestor-or-self of the parent's type (paper case 2: an ancestor
  inverted to become a child).  All ``s`` of its components are shared with
  the parent's number and keep the parent's levels; one *dangling* entry
  records that the node itself lives one level deeper than any component::

      array = L[:s] + [n]

  (so a case-2 array is one entry longer than the numbers it annotates,
  matching the paper's "X's level array is one larger than its PBN number").

Worst case O(cN) time and space: one array of length <= c per vDataGuide
type, with the lca found by comparing the guide types' own PBN numbers.
"""

from __future__ import annotations

from repro.errors import SpecResolutionError
from repro.vdataguide.ast import VGuide, VType


def build_level_arrays(vguide: VGuide) -> dict[VType, tuple[int, ...]]:
    """Run Algorithm 1 over ``vguide``.

    Fills each :class:`VType`'s ``level_array`` and ``lca_length`` in place
    and returns the complete type -> array map.

    :raises SpecResolutionError: if a vDataGuide edge relates two original
        types from different trees of the DataGuide forest (no lca exists,
        so no shared instance could ever relate their nodes).
    """
    arrays: dict[VType, tuple[int, ...]] = {}
    for root in vguide.roots:
        length = root.original.length
        root.level_array = (1,) * length
        root.lca_length = length
        arrays[root] = root.level_array
        _descend(vguide, root, arrays)
    return arrays


def _descend(vguide: VGuide, root: VType, arrays: dict[VType, tuple[int, ...]]) -> None:
    """Every type below ``root``, in preorder off an explicit stack (a
    ``**`` subtree is as deep as the document): each from its parent's."""
    guide = vguide.source
    stack = list(reversed(root.children))
    while stack:
        child = stack.pop()
        parent = child.parent
        assert parent is not None and parent.level_array is not None
        parent_array = parent.level_array
        lca = guide.lca_type_of(parent.original, child.original)
        if lca is None:
            raise SpecResolutionError(
                f"virtual types {parent.dotted()!r} and {child.dotted()!r} "
                "resolve to unrelated DataGuide trees; no common ancestor "
                "instance can relate their nodes"
            )
        k = lca.length
        s = child.original.length
        n = child.level
        if s > k:
            child.level_array = parent_array[:k] + (n,) * (s - k)
            child.lca_length = k
        else:
            # s == k: the child's type is an original ancestor-or-self of
            # the parent's type (inversion).  k can never exceed s because
            # the lca is an ancestor-or-self of the child's type.
            child.level_array = parent_array[:s] + (n,)
            child.lca_length = s
        arrays[child] = child.level_array
        stack.extend(reversed(child.children))
