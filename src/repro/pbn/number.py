"""The prefix-based number type.

A :class:`Pbn` is an immutable sequence of positive components, e.g.
``1.2.2`` for "second child of the second child of the first root" (paper
Figure 8).  Its length equals the node's level, and its prefixes are exactly
the numbers of its ancestors — the property every axis predicate exploits.

Components are positive integers at initial load.  The update subsystem
(:mod:`repro.updates`) additionally mints *rational* components — positive
:class:`fractions.Fraction` values folded from ORDPATH caret runs — so a
sibling can be inserted between ``2`` and ``3`` as ``5/2`` without touching
any extant number.  Rationals compare, hash, and mix with integers exactly
as document order requires, so every layer above (axes, level arrays,
indexes) works unchanged; integral rationals are normalized back to ``int``
so equal numbers have one representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from repro.errors import NumberingError

#: Bounded intern table for component tuples.  Axis predicates and index
#: probes compare the same small tuples millions of times; interning makes
#: the common equality checks pointer comparisons (tuple ``==`` short-
#: circuits on identity) and deduplicates storage.  The cap keeps a
#: pathological document from growing the table without bound; past it,
#: construction degrades gracefully to uninterned tuples.
_INTERNED: dict[tuple, tuple] = {}
_INTERN_CAP = 1 << 17


def intern_components(components: tuple) -> tuple:
    """The canonical instance of ``components`` (bounded memo)."""
    cached = _INTERNED.get(components)
    if cached is not None:
        return cached
    if len(_INTERNED) < _INTERN_CAP:
        _INTERNED[components] = components
    return components


class Pbn:
    """An immutable prefix-based (Dewey) number.

    Construct from components (``Pbn(1, 2, 2)``), from an iterable
    (``Pbn.of([1, 2, 2])``), or from text (``Pbn.parse("1.2.2")``).
    Instances are hashable, totally ordered by document order (ancestors
    precede descendants), and usable as index keys.
    """

    __slots__ = ("components",)

    def __init__(self, *components: int) -> None:
        if not components:
            raise NumberingError("a PBN number needs at least one component")
        normalize = False
        for component in components:
            if isinstance(component, int):
                if component < 1:
                    raise NumberingError(
                        f"PBN components must be positive, got {component!r}"
                    )
            elif isinstance(component, Fraction):
                if component <= 0:
                    raise NumberingError(
                        f"PBN components must be positive, got {component!r}"
                    )
                normalize = True
            else:
                raise NumberingError(
                    f"PBN components must be positive integers or rationals, "
                    f"got {component!r}"
                )
        if normalize:
            # Integral rationals collapse to int so 5/1 == 5 has one
            # representation (equal hash, equal tuple) everywhere.
            components = tuple(
                int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
                for c in components
            )
        object.__setattr__(self, "components", intern_components(components))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Pbn is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def of(cls, components: "list[int] | tuple[int, ...]") -> "Pbn":
        """Build from a sequence of components."""
        return cls(*components)

    @classmethod
    def parse(cls, text: str) -> "Pbn":
        """Parse dotted notation, e.g. ``"1.2.2"`` or ``"1.5/2.2"`` (a
        minted rational component renders as ``numerator/denominator``)."""
        try:
            return cls(
                *(
                    Fraction(part) if "/" in part else int(part)
                    for part in text.split(".")
                )
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise NumberingError(f"malformed PBN number {text!r}") from exc

    @classmethod
    def extended(cls, components: tuple, ordinal) -> "Pbn":
        """The number ``components`` + ``(ordinal,)``, unchecked: the
        caller has ``components`` from a valid number and ``ordinal`` is
        a positive component in normal form (a sibling position, or a
        rational minted by :mod:`repro.updates.careting`)."""
        number = object.__new__(cls)
        object.__setattr__(
            number, "components", intern_components((*components, ordinal))
        )
        return number

    # -- structure -----------------------------------------------------------

    @property
    def level(self) -> int:
        """Tree level of the node this number identifies (root = 1)."""
        return len(self.components)

    @property
    def ordinal(self) -> int:
        """The final component: the node's 1-based sibling position."""
        return self.components[-1]

    def parent(self) -> "Pbn":
        """Number of the parent node.

        :raises NumberingError: for a root (level-1) number.
        """
        if len(self.components) == 1:
            raise NumberingError(f"{self} is a root number and has no parent")
        return Pbn(*self.components[:-1])

    def child(self, ordinal: int) -> "Pbn":
        """Number of this node's ``ordinal``-th child."""
        return Pbn(*self.components, ordinal)

    def prefix(self, length: int) -> "Pbn":
        """The first ``length`` components — the ancestor at that level."""
        if not 1 <= length <= len(self.components):
            raise NumberingError(
                f"prefix length {length} out of range for {self}"
            )
        return Pbn(*self.components[:length])

    def is_prefix_of(self, other: "Pbn") -> bool:
        """True iff this number is a (non-strict) prefix of ``other``."""
        mine = self.components
        return other.components[: len(mine)] == mine

    def shared_prefix_length(self, other: "Pbn") -> int:
        """Number of leading components the two numbers share.

        This is the level of the nodes' lowest common ancestor (0 when the
        nodes are in different trees of the forest).
        """
        count = 0
        for a, b in zip(self.components, other.components):
            if a != b:
                break
            count += 1
        return count

    # -- protocol ------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> int:
        return self.components[index]

    def __hash__(self) -> int:
        return hash(self.components)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pbn) and self.components == other.components

    def __lt__(self, other: "Pbn") -> bool:
        """Document order: an ancestor sorts before its descendants, which
        tuple comparison of the component sequences gives directly."""
        return self.components < other.components

    def __le__(self, other: "Pbn") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Pbn") -> bool:
        return other < self

    def __ge__(self, other: "Pbn") -> bool:
        return self == other or other < self

    def __str__(self) -> str:
        return ".".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"Pbn({str(self)})"
