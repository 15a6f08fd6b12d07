"""Engine-level differential suite: the strategies compared *below* the
service layer, on bare :class:`Engine` instances.

Two byte-identity families (see ``tests/conftest.py``):

* ``tree`` / ``indexed`` / ``sql`` over the same stored document must
  agree on ``to_xml`` and ``values`` for every query the randomized
  generator emits — positional predicates, nested ``and``/``or``,
  ``count()``/``sum()`` filters, ordering axes, and element constructors
  over them (written lazily);
* plain virtual evaluation and virtual evaluation through the sql
  backend (``mode="sql"`` on a ``virtualDoc`` source) must agree the
  same way — same hierarchy, so no duplication discipline applies.

A third family is the *codec arm*: the same strategies over stored and
virtual sources must answer the same bytes whether the type columns under
them are raw tuples or succinct (Elias-Fano) encodings.

Both byte-identity families also run the generator's set-operator shapes
(``|`` / ``except`` / ``intersect``, operands out of document order,
attribute and constructed operands) over one source and over two — a
second document, or a view beside its stored document.

Failures print the generator seed and the query.
"""

from __future__ import annotations

import pytest

from repro.dataguide.build import build_dataguide
from repro.query.engine import Engine
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.querygen import random_queries
from repro.workloads.treegen import random_document, random_spec

from tests.conftest import EXACT_STRATEGIES, succinct_columns_queried

SEEDS = range(30)
GENERATED_PER_SEED = 12


def _element_names(document) -> list[str]:
    guide = build_dataguide(document)
    return sorted(
        {
            guide_type.dotted().split(".")[-1]
            for guide_type in guide.iter_types()
            if "#" not in guide_type.dotted() and "@" not in guide_type.dotted()
        }
    )


@pytest.fixture(scope="module")
def engines():
    """One engine per seed, document loaded as ``doc<seed>.xml`` (and a
    second one as ``other.xml``, for set operators over two documents)."""
    built = []
    for seed in SEEDS:
        document = random_document(seed, max_depth=4, max_children=3)
        engine = Engine()
        engine.load(f"doc{seed}.xml", document)
        engine.load("other.xml", random_document(seed + 500, max_depth=4, max_children=3))
        built.append((seed, engine, _element_names(document)))
    return built


def _set_operator_queries(seed: int, names: list[str]) -> list:
    return [
        query
        for query in random_queries(seed + 2000, names, 24, set_operators=True)
        if query.set_operating
    ]


def test_set_operators_are_byte_identical_across_strategies(engines, strategies_agree):
    problems: list[str] = []
    pairs = 0
    for seed, engine, names in engines:
        stored = f'doc("doc{seed}.xml")'
        spec = random_spec(
            build_dataguide(engine.document(f"doc{seed}.xml")),
            seed,
            max_roots=2,
            max_children=2,
            max_depth=3,
        )
        view = f'virtualDoc("doc{seed}.xml", "{spec}")'
        for index, query in enumerate(_set_operator_queries(seed, names)):
            text = query.text(stored, 'doc("other.xml")' if index % 2 else None)
            strategies_agree(
                lambda strategy: (
                    lambda result: (result.to_xml(), result.values())
                )(engine.execute(text, mode=strategy)),
                EXACT_STRATEGIES,
                context=f"seed={seed} query={text!r}",
                problems=problems,
            )
            text = query.text(view, stored if index % 2 else None)
            strategies_agree(
                lambda strategy: (
                    lambda result: (result.to_xml(), result.values())
                )(engine.execute(text, mode="sql" if strategy == "sql" else None)),
                ("virtual", "sql"),
                context=f"seed={seed} spec={spec!r} query={text!r}",
                problems=problems,
            )
            pairs += 1
    assert not problems, "\n".join(problems[:20])
    assert pairs >= 120, f"only {pairs} set-operator queries exercised"


def test_exact_strategies_are_byte_identical(engines, strategies_agree):
    problems: list[str] = []
    pairs = 0
    for seed, engine, names in engines:
        for query in random_queries(seed, names, GENERATED_PER_SEED, constructors=True):
            text = query.text(f'doc("doc{seed}.xml")')
            strategies_agree(
                lambda strategy: (
                    lambda result: (result.to_xml(), result.values())
                )(engine.execute(text, mode=strategy)),
                EXACT_STRATEGIES,
                context=f"seed={seed} query={text!r}",
                problems=problems,
            )
            pairs += 1
    assert not problems, "\n".join(problems[:20])
    assert pairs >= 300, f"only {pairs} document/query pairs exercised"


def test_virtual_and_sql_backends_agree_on_virtual_queries(
    engines, strategies_agree
):
    problems: list[str] = []
    pairs = 0
    for seed, engine, names in engines:
        spec = random_spec(
            build_dataguide(engine.document(f"doc{seed}.xml")),
            seed,
            max_roots=2,
            max_children=2,
            max_depth=3,
        )
        vdoc = engine.virtual(f"doc{seed}.xml", str(spec))
        vnames = sorted(
            {
                vtype.name
                for vtype in vdoc.vguide.iter_vtypes()
                if not (vtype.is_text or vtype.is_attribute)
            }
        )
        source = f'virtualDoc("doc{seed}.xml", "{spec}")'
        for query in random_queries(seed + 1000, vnames, 6, constructors=True):
            text = query.text(source)
            strategies_agree(
                lambda strategy: (
                    lambda result: (result.to_xml(), result.values())
                )(
                    engine.execute(
                        text, mode="sql" if strategy == "sql" else None
                    )
                ),
                ("virtual", "sql"),
                context=f"seed={seed} spec={spec!r} query={text!r}",
                problems=problems,
            )
            pairs += 1
    assert not problems, "\n".join(problems[:20])
    assert pairs >= 150, f"only {pairs} view/query pairs exercised"


#: (document, stored templates, views) for the codec arm.  The random
#: documents above rarely give a type the 8 rows ``packable()`` asks for,
#: so on them both arms would be raw; these have dozens of rows per type.
CODEC_CASES = [
    (
        lambda: books_document(24, seed=5),
        [
            '{source}//book[author/name >= "T"]/title',
            '{source}//book/author[name >= "M"]',
            "{source}//book/descendant::name",
            "{source}/data/book[2]/author/name",
            "{source}//author/preceding-sibling::title",
            "{source}//location/text()",
            "count({source}//author)",
            "sum({source}//book/title)",
        ],
        [Q.BOOKS_INVERT, Q.BOOKS_CASE2],
    ),
    (
        lambda: dblp_document(40, seed=5),
        [
            "{source}//article[year >= 2005]/title",
            "{source}//inproceedings/descendant::*",
            "{source}//author/following-sibling::title",
            "{source}//article/@key",
            "count({source}//inproceedings/author)",
        ],
        [Q.DBLP_BY_AUTHOR],
    ),
]


def test_succinct_columns_answer_byte_identically_to_raw(each_codec):
    answers: dict = {}
    for codec in each_codec():
        arms = answers[codec] = {}
        encoded = 0
        for build, stored, views in CODEC_CASES:
            document = build()
            engine = Engine()
            engine.load(document.uri, document)
            cells = [
                (Q.instantiate(template, Q.materialized_source(document.uri)), mode)
                for template in stored
                for mode in EXACT_STRATEGIES
            ] + [
                (
                    Q.instantiate(
                        template, Q.virtual_source(document.uri, view.spec)
                    ),
                    mode,
                )
                for view in views
                for template in view.queries.values()
                for mode in (None, "sql")
            ]
            for text, mode in cells:
                result = engine.execute(text, mode=mode)
                assert len(result), (text, mode)  # no vacuous agreement
                arms[text, mode] = (result.to_xml(), result.values())
            encoded += succinct_columns_queried(engine.store(document.uri))
        # The arm is real: the queries themselves ran over encoded columns
        # under ``succinct`` and over none under ``raw``.
        assert (encoded > 0) == (codec == "succinct"), (codec, encoded)
    problems = [
        f"codec=succinct disagrees with codec=raw: query={text!r} mode={mode}"
        for (text, mode), payload in answers["raw"].items()
        if answers["succinct"][text, mode] != payload
    ]
    assert not problems, "\n".join(problems[:20])
