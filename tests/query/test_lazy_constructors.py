"""Constructed answers without renumbering.

An element constructor evaluates to a lazy :class:`Constructed` item —
tag, attribute strings, and references to the nodes its enclosed
expressions produced — which ``to_xml`` writes part by part.  An element
is built (copies, a ``#constructed-N`` document) only where something
navigates into the answer.  Pinned here:

* writing lazily = settling and then serializing, over every constructor
  shape ``querygen`` emits, stored and virtual, every strategy;
* navigation into answers, and union / ``except`` / ``intersect``
  identity across constructed items (settling is memoized per item);
* XQST0040 / XQDY0025: a constructor never answers two attributes of one
  name — at parse time for literal ones, at run time on both the lazy
  and the settle path, and as HTTP 400 when served;
* the counters that say whether a query stayed lazy (``settled`` on the
  ``eval`` span, ``constructed_items`` on ``result.to_xml``).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.dataguide.build import build_dataguide
from repro.errors import QueryEvaluationError, QueryParseError
from repro.obs.profile import build_profile
from repro.query.engine import Engine
from repro.query.items import Constructed, items_to_xml
from repro.service import QueryService
from repro.workloads.books import books_document
from repro.workloads.querygen import CONSTRUCTOR_SHAPES, random_queries
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.nodes import Element
from tests.conftest import EXACT_STRATEGIES, served

SEEDS = range(12)


def _names(guide) -> list[str]:
    return sorted(
        {
            guide_type.dotted().split(".")[-1]
            for guide_type in guide.iter_types()
            if "#" not in guide_type.dotted() and "@" not in guide_type.dotted()
        }
    )


def _cases():
    """``(seed, engine, [(query text, mode), ...])``: every constructor
    shape over a stored and a virtual path, plus the generator's own
    constructor draws, on a random document and view per seed."""
    for seed in SEEDS:
        document = random_document(seed, max_depth=4, max_children=3)
        engine = Engine()
        engine.load(f"doc{seed}.xml", document)
        guide = build_dataguide(document)
        names = _names(guide)
        spec = random_spec(guide, seed, max_roots=2, max_children=2, max_depth=3)
        stored, virtual = f'doc("doc{seed}.xml")', f'virtualDoc("doc{seed}.xml", "{spec}")'
        templates = [
            shape.format(path="{source}//" + names[index % len(names)], name=names[-1])
            for index, shape in enumerate(CONSTRUCTOR_SHAPES)
        ] + [
            query.template
            for query in random_queries(seed, names, 24, constructors=True)
            if query.constructing
        ]
        cells = [
            (template.replace("{source}", source), mode)
            for template in templates
            for source, modes in ((stored, EXACT_STRATEGIES), (virtual, (None, "sql")))
            for mode in modes
        ]
        yield seed, engine, cells


def test_lazy_writing_equals_settling_then_serializing():
    written = constructed = 0
    for seed, engine, cells in _cases():
        for text, mode in cells:
            lazy = engine.execute(text, mode=mode)
            xml, values = lazy.to_xml(), lazy.values()
            constructed += any(isinstance(item, Constructed) for item in lazy.unsettled)
            settled = engine.execute(text, mode=mode)
            items = settled.items  # settles every constructed item
            assert not any(isinstance(item, Constructed) for item in items)
            context = f"seed={seed} mode={mode} query={text!r}"
            assert items_to_xml(items) == xml, context
            assert settled.to_xml() == xml, context
            assert settled.values() == values, context
            written += bool(xml)
    assert written >= 300, written
    assert constructed >= 200, constructed


def test_generated_constructor_shapes_cover_every_shape():
    drawn = {
        query.template
        for seed in SEEDS
        for query in random_queries(seed, ["a", "b"], 40, constructors=True)
        if query.constructing
    }
    for shape in CONSTRUCTOR_SHAPES:
        head = shape.split("{path}")[0].replace("{{", "{").replace("}}", "}")
        assert any(template.startswith(head) for template in drawn), shape
    # Without the flag the stream is the one the differential suites had.
    assert not any(
        query.constructing for query in random_queries(3, ["a", "b"], 200)
    )


@pytest.fixture
def books():
    engine = Engine()
    engine.load("book.xml", books_document(6, seed=3))
    return engine


def test_navigation_into_constructed_answers(books):
    query = (
        'for $b in doc("book.xml")//book '
        "return <e>{ $b/title }<n>{ count($b/author) }</n></e>"
    )
    for mode in EXACT_STRATEGIES:
        titles = books.execute(f"({query})//title/text()", mode=mode).values()
        assert titles == books.execute('doc("book.xml")//book/title/text()').values()
        counts = books.execute(f"({query})/n", mode=mode)
        assert all(isinstance(item, Element) for item in counts)
        assert counts.values() == [
            str(int(value))
            for value in books.execute(
                'for $b in doc("book.xml")//book return count($b/author)'
            ).values()
        ]


def test_union_and_identity_across_constructed_items(books):
    assert books.execute("let $e := <e/> return count($e | $e)").items == [1]
    assert books.execute("let $e := <e/> return count($e except $e)").items == [0]
    assert books.execute(
        "let $s := (<a/>, <b/>) return count($s intersect $s[2])"
    ).items == [1]
    # Document order across constructed items is creation order.
    assert books.execute("(<b/>, <a/>) | <c/>").to_xml() == "<b/><a/><c/>"
    assert books.execute("for $x in (1, 2) return (<a>{ $x }</a> | <b/>)").to_xml() == (
        "<a>1</a><b/><a>2</a><b/>"
    )
    result = books.execute('<w>{ (doc("book.xml")//title)[1] }</w>')
    assert result[0] is result[0] is result.items[0]  # settled once
    assert result[0].parent.name.startswith("#constructed-")


def test_literal_duplicate_attributes_are_a_parse_error(books):
    with pytest.raises(QueryParseError, match="XQST0040"):
        books.execute('<a x="1" x="2"/>')


DUPLICATES = [
    '<a x="0">{ doc("a.xml")//i/@x }</a>',
    'for $a in doc("a.xml")//@x return <b>{ $a, $a }</b>',
]


@pytest.fixture
def attributed():
    engine = Engine()
    engine.load("a.xml", '<r><i x="1">t</i></r>')
    return engine


@pytest.mark.parametrize("query", DUPLICATES)
def test_run_time_duplicate_attributes_are_refused_lazily_and_settled(attributed, query):
    with pytest.raises(QueryEvaluationError, match="XQDY0025"):
        attributed.execute(query).to_xml()
    with pytest.raises(QueryEvaluationError, match="XQDY0025"):
        attributed.execute(query).items
    with pytest.raises(QueryEvaluationError, match="XQDY0025"):
        attributed.execute(f"({query})/node()")


def test_duplicate_attributes_answer_http_400():
    from repro.shard import ShardedService

    service = ShardedService(shards=1, pool_size=1)
    service.load("a.xml", '<r><i x="1">t</i></r>')
    with served(service) as handle:
        for query in ['<a x="1" x="2"/>', *DUPLICATES]:
            request = urllib.request.Request(
                handle.url("/query"), data=query.encode("utf-8"), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400, query
            assert "XQ" in json.loads(excinfo.value.read().decode("utf-8"))["error"]


def _span_attrs(trace, name: str) -> dict:
    profile = build_profile(trace)
    return next(node.attrs for node in profile.walk() if node.name == name)


def test_spans_say_whether_an_answer_stayed_lazy(books):
    flwr = (
        'for $b in doc("book.xml")//book '
        "return <entry>{ $b/title/text() }<n>{ count($b/author) }</n></entry>"
    )
    _, trace = books.explain_analyze(flwr)
    assert _span_attrs(trace, "eval")["settled"] == 0
    # One <entry> and one nested <n> per book, written as they stand.
    assert _span_attrs(trace, "result.to_xml")["constructed_items"] == 12
    _, trace = books.explain_analyze(f"({flwr})/n")
    assert _span_attrs(trace, "eval")["settled"] == 6
    assert _span_attrs(trace, "result.to_xml")["constructed_items"] == 0

