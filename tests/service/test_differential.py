"""Differential safety net: on randomized documents, the four evaluation
strategies — tree-walk, PBN-indexed, relational (``sql``), and virtual
(vPBN) — must agree when reached *through the cached service path*.

This extends ``tests/property/test_navigator_equivalence.py`` from single
axis steps to whole queries served by :class:`QueryService`.  For every
randomized (document, vDataGuide, query) case:

* the three exact strategies (``tree`` / ``indexed`` / ``sql``) answer the
  materialized query byte-identically (``to_xml`` and ``values``);
* virtual evaluation and virtual evaluation *with the sql backend*
  (``mode="sql"`` on a ``virtualDoc`` query) are byte-identical — same
  strategy family, same hierarchy, so no discipline applies;
* the virtual answer is compared against the materialized baseline under
  the duplication/order discipline (DESIGN.md): duplicating views compare
  value *sets*, duplication-free views compare multisets, and exact order
  when the vguide is chain-exact.  Order-sensitive generated queries
  (positional predicates, sibling axes) only cross families when order is
  comparable;
* the warm (cache-hit) virtual run must reproduce the cold one.

Generated queries include element-constructor shapes, so every family
above also compares constructed answers; like counts, they cross families
only on duplication-free views.  So do the generator's set-operator
shapes (``|`` / ``except`` / ``intersect`` over one source, operands out
of document order, attribute and constructed operands), since identity of
entities versus copies decides them.

Queries come from the fixed templates below plus the seeded random
generator (:mod:`repro.workloads.querygen`), whose positional, nested
``and``/``or``, and ``count()``/``sum()`` predicates exercise both the
SQL-compiled and the declined/fallback paths.  Failures print the seed,
spec, and query needed to replay them.
"""

from __future__ import annotations

import pytest

from repro.core.virtual_document import VirtualDocument
from repro.dataguide.build import build_dataguide
from repro.service import QueryService
from repro.workloads.querygen import random_queries
from repro.workloads.treegen import random_document, random_spec

from tests.conftest import EXACT_STRATEGIES

SEEDS = range(48)
GENERATED_PER_CASE = 5

TEMPLATES = [
    "{source}//{name}",
    "{source}//{name}/text()",
    "{source}//{name}/*",
    "count({source}//{name})",
]


class Case:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.uri = f"doc{seed}.xml"
        self.mat_uri = f"mat{seed}.xml"
        self.document = random_document(seed, max_depth=4, max_children=3)
        guide = build_dataguide(self.document)
        self.spec = random_spec(
            guide, seed, max_roots=2, max_children=2, max_depth=3
        )
        vdoc = VirtualDocument.from_spec(self.document, self.spec)
        vguide = vdoc.vguide
        self.materialized, provenance = vdoc.materialize_with_provenance()
        copies: dict[tuple[int, int], int] = {}
        for vnode in provenance.values():
            key = (id(vnode.vtype), id(vnode.node))
            copies[key] = copies.get(key, 0) + 1
        self.duplicating = any(count > 1 for count in copies.values())
        self.order_comparable = not self.duplicating and vguide.chain_exact()
        names = sorted(
            {
                vtype.name
                for vtype in vguide.iter_vtypes()
                if not (vtype.is_text or vtype.is_attribute)
            }
        )
        self.names = names[:3]
        self.generated = random_queries(
            seed, names, GENERATED_PER_CASE, constructors=True
        ) + [
            query
            for query in random_queries(seed + 3000, names, 8, set_operators=True)
            if query.set_operating
        ]


@pytest.fixture(scope="module")
def harness():
    service = QueryService(pool_size=2)
    cases = [Case(seed) for seed in SEEDS]
    for case in cases:
        service.load(case.uri, case.document)
        service.load(case.mat_uri, case.materialized)
    return service, cases


def _cross_family(case: Case, counting: bool, order_sensitive: bool,
                  virtual, indexed, context: str) -> list[str]:
    """Virtual versus materialized, under the duplication/order discipline."""
    problems = []
    if counting:
        if virtual != indexed:
            problems.append(
                f"virtual count {virtual} != materialized {indexed}: {context}"
            )
    elif case.duplicating:
        if set(virtual) != set(indexed):
            problems.append(f"value sets differ: {context}")
    elif case.order_comparable:
        if virtual != indexed:
            problems.append(f"ordered values differ: {context}")
    else:
        if sorted(virtual) != sorted(indexed):
            problems.append(f"value multisets differ: {context}")
    return problems


def test_four_strategies_agree_on_randomized_cases(harness, strategies_agree):
    service, cases = harness
    problems: list[str] = []
    pairs = 0
    for case in cases:
        templated = [
            (template.format(source="{source}", name=name),
             template.startswith("count("), False, False)
            for name in case.names
            for template in TEMPLATES
        ]
        generated = [
            (
                query.text("{source}"),
                query.counting,
                query.order_sensitive,
                query.constructing or query.set_operating,
            )
            for query in case.generated
        ]
        for template, counting, order_sensitive, by_identity in templated + generated:
            context = f"seed={case.seed} spec={case.spec!r} query={template!r}"
            virtual_query = template.replace(
                "{source}", f'virtualDoc("{case.uri}", "{case.spec}")'
            )
            mat_query = template.replace("{source}", f'doc("{case.mat_uri}")')

            # 1. The exact trio is byte-identical on the materialized doc.
            def run_exact(strategy: str):
                result = service.execute(mat_query, mode=strategy)
                return (result.to_xml(), result.values())

            exact = strategies_agree(
                run_exact, EXACT_STRATEGIES, context=context, problems=problems
            )

            # 2. Virtual and virtual-through-sql are byte-identical.
            def run_virtual(strategy: str):
                mode = "sql" if strategy == "sql" else None
                result = service.execute(virtual_query, mode=mode)
                return (result.to_xml(), result.values())

            virtual = strategies_agree(
                run_virtual, ("virtual", "sql"),
                context=context, problems=problems,
            )

            # 3. Virtual versus materialized, where the discipline allows.
            skip_cross = ((counting or by_identity) and case.duplicating) or (
                order_sensitive and not case.order_comparable
            )
            if not skip_cross:
                problems.extend(
                    _cross_family(
                        case, counting, order_sensitive,
                        virtual[1], exact[1], context,
                    )
                )

            # 4. The warm (cache-hit) path reproduces the cold answer.
            warm = service.execute(virtual_query).values()
            if warm != virtual[1]:
                problems.append(f"warm != cold: {context}")
            pairs += 1
    assert not problems, "\n".join(problems[:20])
    # The acceptance bar: at least 300 randomized document/query pairs
    # went through all four strategies.
    assert pairs >= 300, f"only {pairs} document/query pairs exercised"
    # And they really rode the caches: every warm repeat was a plan hit.
    assert service.metrics.counter("cache.plan.hits") >= pairs
    assert service.metrics.hit_rate("view") > 0.5
    # The sql runs actually built relational accel tables.
    assert service.metrics.counter("sql.accel.builds") > 0
