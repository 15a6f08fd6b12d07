"""DataGuide construction from a document (a strong DataGuide).

One traversal of the data creates a type for every distinct label path and
counts its instances.  For data-centric documents the guide is much smaller
than the data (paper Section 4.1), which is what makes Algorithm 1's
``O(cN)`` bound cheap in practice.
"""

from __future__ import annotations

from repro.dataguide.guide import DataGuide
from repro.xmlmodel.nodes import Document, Node


def build_dataguide(document: Document) -> DataGuide:
    """Build the strong DataGuide of ``document``.

    Types are created in document order, so sibling types appear in the
    order their first instances do — which the virtual document uses as a
    tie-break and ``**`` expansion preserves.
    """
    guide = DataGuide()
    # Preorder off an explicit stack: a document may be deeper than the
    # interpreter's recursion limit.
    stack: list[tuple[Node, tuple[str, ...]]] = [
        (root, ()) for root in reversed(document.children)
    ]
    while stack:
        node, parent_path = stack.pop()
        path = parent_path + (node.name,)
        guide.ensure_type(path).count += 1
        stack.extend((child, path) for child in reversed(node.children))
    return guide
