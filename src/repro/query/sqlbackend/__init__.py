"""The ``strategy=sql`` execution backend.

One SQLite accel per view: virtual axes compile to prefix joins against
a tiny per-type table — the per-*type* level-array property is what
keeps the vPBN comparators expressible relationally — and the ordering
axes to ranges over a pre/post numbering of virtual order (see
docs/SQL_BACKEND.md).  A stored document is its store's identity view
here too (PBN is vPBN under identity level arrays), lifted into it and
lowered back by the evaluator as ``indexed`` does.

Accels are built lazily and cached on the engine like level arrays;
copy-on-write updates publish new store objects with views of their
own, so ``Engine.attach`` dropping the previous identity view's accel is
the whole invalidation story.
"""

from repro.query.sqlbackend.virtual_accel import VirtualAccel

__all__ = ["VirtualAccel"]
