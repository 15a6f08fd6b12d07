"""Seeded random XPath query generator for the differential suites.

:func:`random_query` is a pure function of its ``random.Random`` (or
seed), so any failing query is reproducible from the printed seed.  The
generator deliberately emits both the constructs the ``strategy=sql``
backend compiles to SQL — positional predicates (``[2]``, ``[last()]``,
``[position() <= k]``), nested ``and``/``or`` predicates, ``count()`` in
filters — and the ones every backend must fall back to Python for
(``sum()`` in filters), so the differential suites exercise the compiled
and declined paths alike.  Single-comparison value predicates (``. op c``,
``@attr op c``, ``child op c`` — numeric and string constants) are weighted
in for the same reason on the CAS side: they are exactly what the
content-and-structure kernel compiles, while the same comparisons inside
``and``/``or`` chains force its decline path.

Each query is wrapped in a :class:`GeneratedQuery` carrying the flags
the comparison discipline needs (see ``tests/conftest.py``):

* ``order_sensitive`` — the answer depends on global document order
  (positional predicates, sibling/ordering axes).  Exact strategies over
  one document are always byte-comparable; *virtual versus materialized*
  comparisons of such queries are only meaningful when the view is
  duplication-free and chain-exact.
* ``counting`` — the query is a ``count()`` wrapper, whose virtual and
  materialized answers legitimately differ on duplicating views (copies
  versus entities, see DESIGN.md).

With ``constructors=True`` some draws wrap the path's elements in one of
the element-constructor shapes of :data:`CONSTRUCTOR_SHAPES` (flagged
``constructing``): embedded nodes and attributes, atomics joined by a
space, nested constructors, navigation into constructed answers, and
unions of constructed items.  Like ``count()``, they embed and count
entities where a materialized view holds copies, so virtual and
materialized answers compare only on duplication-free views.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Union

_WORDS = ["red", "green", "blue", "ochre", "teal", "plum"]

#: Element-constructor wrappers over ``{path}`` (its elements only) —
#: ``{name}`` is an element name of the document.
CONSTRUCTOR_SHAPES = (
    # attribute template, text, embedded element, a nested constructor
    'for $x in ({path})[self::*] return <r n="{{ count($x/*) }}">{{ $x/text() }}<c>{{ $x }}</c></r>',
    # the whole answer as the content of one element
    "<r>{{ ({path})[self::*] }}</r>",
    # embedded attribute nodes, then atomics joined by a space
    "for $x in ({path})[self::*] return <r>{{ $x/@* }}{{ count($x/*), name($x) }}</r>",
    # navigation into constructed answers
    "(for $x in ({path})[self::*] return <e>{{ $x }}</e>)//{name}",
    # constructed items inside constructor content
    '<r>{{ for $x in ({path})[self::*] return <e k="{{ name($x) }}">{{ $x/* }}</e> }}</r>',
    # a union across constructed items (document order is creation order)
    "for $x in ({path})[self::*] return (<a>{{ $x/text() }}</a> | <b>{{ $x/@* }}</b>)",
)

#: Constructor shapes whose one answer item depends on the path's order.
_ORDERED_SHAPES = frozenset([1, 4])


@dataclass(frozen=True)
class GeneratedQuery:
    """A query template with the flags its comparison discipline needs."""

    template: str
    order_sensitive: bool = False
    counting: bool = False
    constructing: bool = False

    def text(self, source: str) -> str:
        """Fill the ``{source}`` hole."""
        return self.template.replace("{source}", source)


def random_query(
    rng_or_seed: Union[random.Random, int],
    names: Sequence[str],
    max_steps: int = 2,
    constructors: bool = False,
) -> GeneratedQuery:
    """One random query over element ``names`` (tags known to occur in the
    target document — or not; missing names make legal empty steps).
    With ``constructors``, a third of the draws are constructor shapes."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, random.Random)
        else random.Random(rng_or_seed)
    )
    pool = list(names) or ["missing"]
    order_sensitive = False

    def name() -> str:
        return rng.choice(pool)

    def positional() -> str:
        nonlocal order_sensitive
        order_sensitive = True
        return rng.choice(
            [
                f"[{rng.randrange(1, 4)}]",
                "[last()]",
                "[last() - 1]",
                f"[position() <= {rng.randrange(1, 4)}]",
                "[position() > 1]",
            ]
        )

    def value_comparison() -> str:
        """A single-comparison value predicate body — exactly the shape
        the CAS kernel compiles (``compile_value_predicate``): ``.``,
        ``@attr``, or a child name against a numeric or string constant,
        constant on either side.  Weighted in so the differential suites
        exercise the CAS range-scan path, its coercion rules (numeric
        ``@id`` values vs word texts), and its decline-to-scalar edges."""
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        roll = rng.randrange(5)
        if roll == 0:
            return f'. {op} "{rng.choice(_WORDS)}"'
        if roll == 1:
            return f"@id {op} {rng.randrange(1000)}"
        if roll == 2:
            return f'{name()} {op} "{rng.choice(_WORDS)}"'
        if roll == 3:
            # Constant on the left: compilation must flip the operator.
            return f'"{rng.choice(_WORDS)}" {op} {name()}'
        return f". {op} {rng.randrange(10)}"

    def condition() -> str:
        """A boolean-valued predicate body (legal as an and/or operand)."""
        roll = rng.randrange(10)
        if roll >= 8:
            # Inside and/or chains the comparison is *not* CAS-compilable
            # on its own step — the conjunction declines to scalar — so
            # both the batched and declined paths see these shapes.
            return value_comparison()
        if roll == 0:
            return f'{name()} = "{rng.choice(_WORDS)}"'
        if roll == 1:
            return f"count({name()}) >= {rng.randrange(1, 3)}"
        if roll == 2:
            return f"count(*) > {rng.randrange(3)}"
        if roll == 3:
            # sum() is not SQL-compilable: forces the fallback path.
            return f"sum({name()}) <= {rng.randrange(5)}"
        if roll == 4:
            return f"not({name()})"
        if roll == 5:
            return f".//{name()}"
        if roll == 6:
            return rng.choice(["@id", "text()", "*"])
        return name()

    def predicate() -> str:
        roll = rng.random()
        if roll < 0.3:
            return positional()
        if roll < 0.55:
            return f"[{value_comparison()}]"
        if roll < 0.8:
            return f"[{condition()}]"
        op = rng.choice(["and", "or"])
        return f"[{condition()} {op} {condition()}]"

    def step(first: bool) -> str:
        nonlocal order_sensitive
        roll = rng.random()
        if roll < 0.55 or first:
            sep = "//" if first or rng.random() < 0.5 else "/"
            return f"{sep}{name()}"
        if roll < 0.7:
            return rng.choice(["/*", "//*"])
        if roll < 0.8:
            return rng.choice(["/..", "/ancestor::*"])
        order_sensitive = True
        return rng.choice(
            ["/following-sibling::*", "/preceding-sibling::*", "/following::*"]
        )

    parts = []
    for index in range(rng.randrange(1, max_steps + 1)):
        parts.append(step(index == 0))
        if rng.random() < 0.6:
            parts.append(predicate())
    if rng.random() < 0.25:
        parts.append(rng.choice(["/text()", "/@id", "/@*"]))
    path = "{source}" + "".join(parts)

    counting = rng.random() < 0.2
    if constructors and rng.random() < 1 / 3:
        shape = rng.randrange(len(CONSTRUCTOR_SHAPES))
        template = CONSTRUCTOR_SHAPES[shape].format(path=path, name=name())
        ordered = order_sensitive or shape in _ORDERED_SHAPES
        return GeneratedQuery(template, ordered, constructing=True)
    template = f"count({path})" if counting else path
    return GeneratedQuery(template, order_sensitive, counting)


def random_queries(
    rng_or_seed: Union[random.Random, int],
    names: Sequence[str],
    count: int,
    max_steps: int = 2,
    constructors: bool = False,
) -> list[GeneratedQuery]:
    """``count`` random queries from one reproducible stream."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, random.Random)
        else random.Random(rng_or_seed)
    )
    return [random_query(rng, names, max_steps, constructors) for _ in range(count)]
