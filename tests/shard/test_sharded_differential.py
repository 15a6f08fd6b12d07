"""Differential safety net for sharding: on randomized documents, a
sharded collection must answer every query in the differential suite
*byte-identically* to the unsharded service — per document (routing) and
across documents (scatter-gather) — for all four evaluation strategies:
tree-walk, PBN-indexed, relational (``sql``), and virtual (vPBN).

The unsharded baseline is a 1-shard :class:`ShardedService`, which routes
every query straight through a plain :class:`QueryService` — so the
comparison isolates exactly the partition/specialize/merge machinery.
Queries come from fixed templates plus the seeded random generator
(:mod:`repro.workloads.querygen`); the shared ``strategies_agree`` helper
additionally pins the three exact strategies to byte-identical answers
*through the sharded path itself*.  A codec arm repeats the scatter over a
2-shard collection under raw and under succinct type columns.

The generator's set-operator shapes run per document and, over two
documents on different shards, through the scatter — except those with
a constructed operand, which cannot merge across shards.
"""

from __future__ import annotations

import pytest

from repro.dataguide.build import build_dataguide
from repro.shard import ShardedService
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.querygen import random_queries
from repro.workloads.treegen import random_document, random_spec

from tests.conftest import (
    ALL_STRATEGIES,
    EXACT_STRATEGIES,
    succinct_columns_queried,
)

SEEDS = range(14)
SHARDS = 4
GENERATED_PER_CASE = 4

PER_DOC_TEMPLATES = [
    "{source}//{name}",
    "{source}//{name}/text()",
    "{source}//{name}/*",
    "count({source}//{name})",
]

CROSS_DOC_TEMPLATES = [
    "{a} | {b}",
    "{b} | {a}",
    "count({a} | {b})",
]


class Case:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.uri = f"doc{seed}.xml"
        self.document = random_document(seed, max_depth=4, max_children=3)
        guide = build_dataguide(self.document)
        self.spec = random_spec(
            guide, seed, max_roots=2, max_children=2, max_depth=3
        )
        names = sorted(
            {
                vtype.dotted().split(".")[-1]
                for vtype in guide.iter_types()
                if "#" not in vtype.dotted() and "@" not in vtype.dotted()
            }
        )
        self.name = names[len(names) // 2] if names else "missing"
        self.generated = random_queries(seed, names, GENERATED_PER_CASE)
        self.set_operators = [
            query
            for query in random_queries(seed + 4000, names, 12, set_operators=True)
            if query.set_operating
        ]

    def source(self, strategy: str) -> str:
        if strategy == "virtual":
            return f'virtualDoc("{self.uri}", "{self.spec}")'
        return f'doc("{self.uri}")'

    def queries(self, strategy: str) -> list[str]:
        source = self.source(strategy)
        fixed = [
            template.format(source=source, name=self.name)
            for template in PER_DOC_TEMPLATES
        ]
        generated = self.generated + self.set_operators
        return fixed + [query.text(source) for query in generated]


@pytest.fixture(scope="module")
def services():
    sharded = ShardedService(shards=SHARDS, pool_size=1)
    single = ShardedService(shards=1, pool_size=1)
    cases = [Case(seed) for seed in SEEDS]
    for case in cases:
        for service in (sharded, single):
            service.load(case.uri, random_document(case.seed, max_depth=4, max_children=3))
    yield sharded, single, cases
    sharded.close()
    single.close()


def _mode(strategy):
    return None if strategy == "virtual" else strategy


STRATEGIES = list(ALL_STRATEGIES)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_per_document_routing_is_byte_identical(services, strategy):
    sharded, single, cases = services
    problems = []
    pairs = 0
    for case in cases:
        for query in case.queries(strategy):
            a = sharded.execute(query, mode=_mode(strategy))
            b = single.execute(query, mode=_mode(strategy))
            pairs += 1
            if a.to_xml() != b.to_xml() or a.values() != b.values():
                problems.append(f"seed={case.seed} {strategy} {query!r}")
    assert not problems, "\n".join(problems[:10])
    # Four parametrized runs of this test each cover >= 75 pairs, so the
    # suite exercises >= 300 sharded-vs-single document/query pairs.
    assert pairs >= 75, f"only {pairs} document/query pairs exercised"


def test_exact_strategies_agree_through_the_sharded_path(
    services, strategies_agree
):
    sharded, _, cases = services
    problems: list[str] = []
    for case in cases:
        for query in case.queries("tree"):
            strategies_agree(
                lambda strategy: (
                    lambda result: (result.to_xml(), result.values())
                )(sharded.execute(query, mode=strategy)),
                EXACT_STRATEGIES,
                context=f"seed={case.seed} query={query!r}",
                problems=problems,
            )
    assert not problems, "\n".join(problems[:10])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cross_document_scatter_is_byte_identical(services, strategy):
    sharded, single, cases = services
    problems = []
    checked = 0
    for left, right in zip(cases, cases[1:]):
        if sharded.catalog.shard_of(left.uri) == sharded.catalog.shard_of(right.uri):
            continue  # only cross-shard pairs exercise the merge
        for template in CROSS_DOC_TEMPLATES:
            query = template.format(
                a=f"{left.source(strategy)}//{left.name}",
                b=f"{right.source(strategy)}//{right.name}",
            )
            a = sharded.execute(query, mode=_mode(strategy))
            b = single.execute(query, mode=_mode(strategy))
            checked += 1
            if a.to_xml() != b.to_xml() or a.values() != b.values():
                problems.append(f"seeds={left.seed},{right.seed} {strategy} {query!r}")
    assert not problems, "\n".join(problems[:10])
    assert checked >= 6, f"only {checked} cross-shard pairs exercised"


def _cross_shard_set_operators(sharded, cases, strategy) -> list[str]:
    """Generated set-operator queries over two documents on different
    shards (no constructed operand: those cannot merge across shards)."""
    queries = []
    for left, right in zip(cases, cases[1:]):
        if sharded.catalog.shard_of(left.uri) == sharded.catalog.shard_of(right.uri):
            continue
        queries.extend(
            query.text(left.source(strategy), right.source(strategy))
            for query in left.set_operators
            if not query.constructing
        )
    return queries


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cross_document_set_operators_are_byte_identical(services, strategy):
    sharded, single, cases = services
    problems = []
    queries = _cross_shard_set_operators(sharded, cases, strategy)
    for query in queries:
        a = sharded.execute(query, mode=_mode(strategy))
        b = single.execute(query, mode=_mode(strategy))
        if a.to_xml() != b.to_xml() or a.values() != b.values():
            problems.append(f"{strategy} {query!r}")
    assert not problems, "\n".join(problems[:10])
    assert len(queries) >= 8, f"only {len(queries)} cross-shard set operators"


def test_whole_collection_union_is_byte_identical(services):
    sharded, single, cases = services
    for strategy in STRATEGIES:
        query = " | ".join(
            f"{case.source(strategy)}//{case.name}" for case in cases
        )
        a = sharded.execute(query, mode=_mode(strategy))
        b = single.execute(query, mode=_mode(strategy))
        assert a.to_xml() == b.to_xml(), f"collection union differs ({strategy})"
        assert a.values() == b.values()


def test_scatter_is_byte_identical_under_raw_and_succinct_columns(each_codec):
    # books documents, not the random ones above: those rarely give a type
    # the 8 rows ``packable()`` asks for, so both arms would be raw.
    uris = [f"doc{i}.xml" for i in range(4)]  # hash onto both shards
    spec = Q.BOOKS_INVERT.spec
    stored = [
        " | ".join(f'doc("{uri}")//title' for uri in uris),
        " | ".join(f'doc("{uri}")//book/author[name >= "M"]' for uri in uris),
        "count(" + " | ".join(f'doc("{uri}")//*' for uri in uris) + ")",
    ]
    virtual = " | ".join(
        f"{Q.virtual_source(uri, spec)}//title/author" for uri in uris
    )
    cells = [(query, mode) for query in stored for mode in EXACT_STRATEGIES]
    cells.append((virtual, None))
    answers = {}
    for codec in each_codec():
        service = ShardedService(shards=2, pool_size=1)
        try:
            for index, uri in enumerate(uris):
                service.load(uri, books_document(16, seed=200 + index, uri=uri))
            arms = answers[codec] = {}
            for query, mode in cells:
                result = service.execute(query, mode=mode)
                assert len(result.shards) == 2, query  # a real scatter
                arms[query, mode] = (result.to_xml(), result.values())
            encoded = sum(
                succinct_columns_queried(service.store(uri)) for uri in uris
            )
        finally:
            service.close()
        assert (encoded > 0) == (codec == "succinct"), (codec, encoded)
    assert answers["succinct"] == answers["raw"]
