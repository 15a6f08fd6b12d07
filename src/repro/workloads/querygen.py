"""Seeded random XPath query generator for the differential suites.

:func:`random_query` is a pure function of its ``random.Random`` (or
seed), so any failing query is reproducible from the printed seed.  The
generator deliberately emits predicates whose answers depend on the
order and the grouping of a step's candidates — positional predicates
(``[2]``, ``[last()]``, ``[position() <= k]``), nested ``and``/``or``
predicates, ``count()`` and ``sum()`` in filters — which every strategy
evaluates per item over its own axis steps (under ``strategy=sql``, the
accel's), so the differential suites pin each strategy's axis order.
Single-comparison value predicates (``. op c``,
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

With ``set_operators=True`` some draws combine two generated paths with
one of the :data:`SET_OPERATOR_SHAPES` (flagged ``set_operating``):
``|`` / ``except`` / ``intersect``, operands that are not in document
order, attribute operands and constructed operands.  The second path
reads the ``{second}`` hole — another document or view, or the same
source again when :meth:`GeneratedQuery.text` gets none.  Identity of
entities versus copies decides ``except`` / ``intersect`` too, so they
cross the virtual / materialized line only on duplication-free views.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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

#: Set-operator wrappers over ``{path}`` (on ``{source}``) and ``{other}``
#: (on ``{second}``) — ``{name}`` is an element name of the document.
SET_OPERATOR_SHAPES = (
    "{path} | {other}",
    "({path}) except ({other})",
    "({path}) intersect ({other})",
    # a chain of three: one n-ary union
    "{path} | {other} | {source}//{name}",
    # operands not in document order
    "({path})[2] | ({path})[1]",
    # attribute operands beside elements
    "{source}//@* | {other}",
    "({path}) except {source}//@*",
    # a constructed operand: its own container, first seen first
    "<u>{{ ({path})[self::*] }}</u> | {other}",
)

#: Set-operator shapes whose answer depends on the paths' order.
_ORDERED_SET_SHAPES = frozenset([4])

#: Set-operator shapes with a constructed operand.
_CONSTRUCTED_SET_SHAPES = frozenset([7])


@dataclass(frozen=True)
class GeneratedQuery:
    """A query template with the flags its comparison discipline needs."""

    template: str
    order_sensitive: bool = False
    counting: bool = False
    constructing: bool = False
    set_operating: bool = False

    def text(self, source: str, second: Optional[str] = None) -> str:
        """Fill the ``{source}`` hole, and the ``{second}`` one with
        ``second`` (``source`` when omitted)."""
        return self.template.replace("{source}", source).replace(
            "{second}", source if second is None else second
        )


def random_query(
    rng_or_seed: Union[random.Random, int],
    names: Sequence[str],
    max_steps: int = 2,
    constructors: bool = False,
    set_operators: bool = False,
) -> GeneratedQuery:
    """One random query over element ``names`` (tags known to occur in the
    target document — or not; missing names make legal empty steps).
    With ``constructors``, a third of the draws are constructor shapes;
    with ``set_operators``, a quarter are set-operator shapes."""
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

    def path(hole: str) -> str:
        parts = []
        for index in range(rng.randrange(1, max_steps + 1)):
            parts.append(step(index == 0))
            if rng.random() < 0.6:
                parts.append(predicate())
        if rng.random() < 0.25:
            parts.append(rng.choice(["/text()", "/@id", "/@*"]))
        return hole + "".join(parts)

    first = path("{source}")
    if set_operators and rng.random() < 1 / 4:
        shape = rng.randrange(len(SET_OPERATOR_SHAPES))
        template = SET_OPERATOR_SHAPES[shape].format(
            path=first, other=path("{second}"), name=name(), source="{source}"
        )
        return GeneratedQuery(
            template,
            order_sensitive or shape in _ORDERED_SET_SHAPES,
            constructing=shape in _CONSTRUCTED_SET_SHAPES,
            set_operating=True,
        )

    counting = rng.random() < 0.2
    if constructors and rng.random() < 1 / 3:
        shape = rng.randrange(len(CONSTRUCTOR_SHAPES))
        template = CONSTRUCTOR_SHAPES[shape].format(path=first, name=name())
        ordered = order_sensitive or shape in _ORDERED_SHAPES
        return GeneratedQuery(template, ordered, constructing=True)
    template = f"count({first})" if counting else first
    return GeneratedQuery(template, order_sensitive, counting)


def random_queries(
    rng_or_seed: Union[random.Random, int],
    names: Sequence[str],
    count: int,
    max_steps: int = 2,
    constructors: bool = False,
    set_operators: bool = False,
) -> list[GeneratedQuery]:
    """``count`` random queries from one reproducible stream."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, random.Random)
        else random.Random(rng_or_seed)
    )
    return [
        random_query(rng, names, max_steps, constructors, set_operators)
        for _ in range(count)
    ]
