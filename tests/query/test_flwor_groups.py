"""Set-at-a-time FLWR answers: groupable return / where paths.

A ``for`` loop used to run ``$v/title/text()`` and ``count($v/author)``
once per binding.  Every downward, predicate-free ``child`` / ``attribute``
path from a variable bound to one node per binding — and ``count()`` /
``sum()`` of one — now runs once over the whole binding sequence through
the navigators' grouped kernels (``step_groups`` / ``aggregate_groups``),
which keep each binding's runs apart; each loop iteration reads its own
slice.  Pinned here:

* the answer is the loop's, byte for byte: kernels on = kernels off (the
  per-binding reference) = ``mode="tree"`` = ``mode="sql"``, over stored
  books / auction / dblp / attribute-and-number documents and inverting,
  duplicating, forest and recursive views, under both column codecs;
* the grouping declines where the batch kernels do (bindings of two
  documents), and says so on every per-binding step row;
* the cost is counts: the number of kernel calls, and the range scans of
  a warm grouped path, do not grow with the number of bindings, and the
  budget meter sees the loop's charges;
* a view's parent->child run tables live and die with the view: one kept
  across an unrelated update answers from its tables, one whose types an
  update touched is evicted and its successor builds them afresh.
"""

from __future__ import annotations

import pytest

from repro.dataguide.build import build_dataguide
from repro.errors import QueryBudgetExceeded
from repro.obs.profile import build_profile, operators
from repro.query.budget import CostBudget
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.query.eval_virtual import VirtualNavigator
from repro.pbn.number import Pbn
from repro.service import QueryService
from repro.updates.ops import InsertSubtree, ReplaceText
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.treegen import random_document, random_spec
from repro.workloads.xmarklike import auction_document
from repro.xmlmodel.serializer import serialize
from tests.query.test_columnar_kernels import _gappy
from tests.query.test_path_predicates import library


def _interleaved(books: int) -> str:
    """Child types that interleave (``t a t a n``), books with several
    titles: under ``b { t { a n } c }`` both titles of a book own all its
    ``a`` and ``n`` — contexts of one binding sharing a run — and one
    title's children merge across types."""
    parts = ["<r>"]
    for index in range(books):
        parts.append(f'<b k="{index}">')
        for copy in range(1 + index % 3):
            parts.append(f"<t>T{index}.{copy}</t><a>{index}</a>")
            if copy % 2:
                parts.append(f"<n>{copy}</n>")
        parts.append(f"<c>{index * 2}</c></b>")
    parts.append("</r>")
    return "".join(parts)


def _generated_view(seed: int, contexts: list, children: list, attributes: list):
    """A ``treegen`` document under its ``random_spec`` view: seed 31 is
    the recursive view of ``test_columnar_kernels.py``; 63 and 118 have
    bindings whose several contexts need a merge no order key gives, on
    a comparator that is not a total order."""
    document = random_document(seed, max_depth=5, max_children=4)
    spec = random_spec(build_dataguide(document), seed + 1000)
    return serialize(document), spec, contexts, children, attributes


#: ``id -> (document text, spec or "" for the stored document, context
#: names, child names, attribute names)``
CASES = {
    "interleaved": (_interleaved(7), "", ["b", "r"], ["t", "a", "n"], ["k"]),
    "shared-runs": (_interleaved(7), "b { t { a n } c }", ["b", "t"], ["t", "a", "n"],
                    ["k"]),
    "random": (serialize(random_document(29, max_depth=4, max_children=4)), "",
               ["root", "a", "b", "h"], ["b", "d", "h", "g"], ["id"]),
    "books": (serialize(books_document(24, seed=3)), "", ["book", "author"],
              ["title", "author", "name"], []),
    "auction": (serialize(auction_document(8, seed=4)), "", ["item", "auction", "region"],
                ["name", "bid", "price"], ["id", "person"]),
    "dblp": (serialize(dblp_document(20, seed=5)), "", ["article", "inproceedings"],
             ["author", "title", "year"], ["key"]),
    "library": (library(6, shelves=2, books=4), "", ["book", "author", "shelf"],
                ["price", "born", "author"], ["year", "rank", "floor"]),
    "books-invert": (serialize(books_document(24, seed=3)), Q.BOOKS_INVERT.spec,
                     ["title", "author"], ["author", "name"], []),
    "inverting": (serialize(books_document(24, seed=6)), Q.BOOKS_CASE2.spec,
                  ["title", "name"], ["name", "author"], []),
    "duplicating": (serialize(dblp_document(20, seed=5)), Q.DBLP_BY_AUTHOR.spec,
                    ["author", "article", "inproceedings"], ["article", "title", "year"],
                    []),
    "forest": (serialize(books_document(12, seed=7)),
               "title { author { name } } name { author }",
               ["title", "name", "author"], ["author", "name"], []),
    "library-view": (library(8, shelves=2, books=4),
                     "lib.shelf { lib.shelf.book.price lib.shelf.book.author { born name } }",
                     ["shelf", "author"], ["author", "price", "born"], ["rank", "id"]),
    "gappy": (_gappy(24), "", ["b", "r"], ["a", "t", "b"], ["k"]),
    "recursive": _generated_view(31, ["root", "a", "c", "d"], ["a", "c", "d"], []),
    "generated-63": _generated_view(63, ["b", "f", "a"], ["a", "d", "h"], []),
    "generated-118": _generated_view(118, ["e", "h", "c"], ["f", "g", "e"], ["id"]),
}

#: Groupable shapes; ``{a}`` / ``{b}`` are child names, ``{at}`` an
#: attribute name.
PATHS = (
    "$v/*", "$v/node()", "$v/text()", "$v/@*", "$v/{a}", "$v/{a}/text()",
    "$v/*/{b}", "$v/{a}/*", "$v/@{at}", "$v/*/@*", "$v/*/*", "$v/*/node()",
    "count($v/*)", "count($v/{a})", "count($v/*/{b})", "sum($v/{a})",
    "sum($v/*/{b})", "sum($v/@{at})",
)

#: FLWR shapes over a context ``//{ctx}``: a constructor, a bare
#: sequence, a grouped ``where``, nested ``for`` (a variable bound to the
#: same node in several bindings), ``order by``.
SHAPES = (
    "for $v in {src}//{ctx} return <r>{{ {path} }}</r>",
    "for $v in {src}//{ctx} return {path}",
    "for $v in {src}//{ctx} where count($v/node()) > 1 "
    'return <r n="{{ count($v/*) }}">{{ {path} }}</r>',
    "for $u in {src}//{ctx}, $v in $u/* return <p>{{ $u/text() }}{{ {path} }}</p>",
    "for $v at $i in {src}//{ctx} order by $i descending return ({path}, $i)",
)


def _source(case: str) -> str:
    spec = CASES[case][1]
    return f'virtualDoc("d.xml", "{spec}")' if spec else 'doc("d.xml")'


def _queries(case: str):
    _, _, contexts, children, attributes = CASES[case]
    at = attributes[0] if attributes else "none"
    for ctx in contexts:
        for index, template in enumerate(PATHS):
            for offset, a in enumerate(children):
                if offset and "{a}" not in template and "{b}" not in template:
                    break  # a shape without names: once per context
                b = children[(offset + 1) % len(children)]
                path = template.format(a=a, b=b, at=at)
                shape = SHAPES[(index + offset) % len(SHAPES)]
                yield shape.format(src=_source(case), ctx=ctx, path=path)


def _payload(result):
    return result.to_xml(), result.values()


class _Calls:
    """Records the navigator's kernel calls by name (``names``: the
    grouped kernels unless given)."""

    def __init__(self, monkeypatch, names=("step_groups", "aggregate_groups")) -> None:
        self.names: list[str] = []
        for name in names:
            monkeypatch.setattr(
                VirtualNavigator, name, self._wrap(name, getattr(VirtualNavigator, name))
            )

    def _wrap(self, name, method):
        def counted(navigator, *args):
            self.names.append(name)
            return method(navigator, *args)

        return counted


# -- the differential ---------------------------------------------------------


@pytest.mark.parametrize("case", list(CASES))
def test_grouped_answers_match_every_arm(case, monkeypatch, each_codec):
    calls = _Calls(monkeypatch)
    for codec in each_codec():
        engine = Engine()
        engine.load("d.xml", CASES[case][0])
        answered = 0
        for query in _queries(case):
            where = f"{case} {codec} {query}"
            grouped = _payload(engine.execute(query))
            monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
            loop = _payload(engine.execute(query))
            monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
            assert grouped == loop, f"grouped != loop: {where}"
            assert _payload(engine.execute(query, mode="tree")) == loop, where
            assert _payload(engine.execute(query, mode="sql")) == loop, where
            answered += bool(grouped[1])
        assert answered > len(PATHS), case  # not vacuous
    assert calls.names, case


def test_sums_exact_inexact_and_nan_match_the_loop(monkeypatch):
    # born: integral values and NaN-poisoned runs (``n/a``, ""), summed
    # by prefix sums; price: 12.5 makes the column inexact, so every
    # binding folds its own values in document order.
    engine = Engine()
    engine.load("d.xml", library(3, shelves=2, books=5))
    for query in (
        'for $a in doc("d.xml")//author return <s>{ sum($a/born) }</s>',
        'for $b in doc("d.xml")//book return <s>{ sum($b/price) }</s>',
        'for $b in doc("d.xml")//book return <s>{ sum($b/author/born) }</s>',
        'for $s in virtualDoc("d.xml", "lib.shelf { lib.shelf.book.price '
        'lib.shelf.book.author { born } }")'
        "//shelf return <s>{ sum($s/price) }|{ sum($s/author/born) }</s>",
    ):
        grouped = engine.execute(query).to_xml()
        monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
        assert engine.execute(query).to_xml() == grouped, query
        monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
        assert "NaN" in grouped or "." in grouped, query  # not all-int sums
    _, trace = engine.explain_analyze(
        'for $b in doc("d.xml")//book return sum($b/price)'
    )
    row = {r.detail: r for r in operators(build_profile(trace))}["child::price"]
    assert row.calls == 1
    assert (row.attrs["kernel"], row.attrs["reason"]) == ("scalar", "inexact-sum")


# -- edge cases ---------------------------------------------------------------


def test_empty_and_single_bindings():
    engine = Engine()
    engine.load("d.xml", books_document(5, seed=1))
    empty = 'for $v in doc("d.xml")//nothing return <r>{ count($v/a) }</r>'
    assert engine.execute(empty).items == []
    single = 'for $v in (doc("d.xml")//book)[1] return count($v/author)'
    assert engine.execute(single).values() == ["3"]


def test_bindings_from_two_documents_decline_with_the_reason(monkeypatch):
    engine = Engine()
    engine.load("a.xml", books_document(4, seed=1))
    engine.load("b.xml", books_document(4, seed=2))
    calls = _Calls(monkeypatch)
    query = (
        'for $v in (doc("a.xml")//book, doc("b.xml")//book) '
        "return <r>{ $v/title/text() }{ count($v/author) }</r>"
    )
    grouped, trace = engine.explain_analyze(query)
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    assert _payload(grouped) == _payload(engine.execute(query))
    assert calls.names == []
    rows = {r.detail: r for r in operators(build_profile(trace))}
    for label in ("child::title", "child::text()", "child::author"):
        assert rows[label].calls == 8, label  # once per binding: the loop
        assert rows[label].attrs["reason"] == "heterogeneous-context", label


def test_a_variable_rebound_inside_the_return_is_not_grouped():
    engine = Engine()
    engine.load("d.xml", books_document(6, seed=2))
    query = (
        'for $v in doc("d.xml")//book return '
        "<r>{ count($v/author) }{ for $v in $v/author return $v/name/text() }</r>"
    )
    expected = [
        f"<r>{len(book.children) - 2}"
        + "".join(a.children[0].children[0].value for a in book.children[1:-1])
        + "</r>"
        for book in books_document(6, seed=2).root.children
    ]
    assert engine.execute(query).to_xml() == "".join(expected)


# -- cost, as counts ----------------------------------------------------------


@pytest.mark.parametrize("books", [50, 500])
def test_kernel_calls_do_not_grow_with_the_bindings(books, monkeypatch):
    engine = Engine()
    engine.load("book.xml", books_document(books, seed=7))
    query = 'for $b in doc("book.xml")//book return count($b/author)'
    engine.execute(query)
    calls = _Calls(
        monkeypatch, ("step_many", "aggregate_many", "step_groups", "aggregate_groups")
    )
    result = engine.execute(query)
    assert len(result) == books
    assert calls.names == ["aggregate_groups"]  # the loop: one aggregate_many per book


def test_a_variables_bound_nodes_are_lifted_once_per_query(monkeypatch):
    """Every grouped path of one variable reads one lifted context set:
    the stored twin of ``books-invert.author-count`` lifts its 500 bound
    books into the store's identity view once, not once per path."""
    import repro.query.eval as eval_module

    engine = Engine()
    engine.load("book.xml", books_document(500, seed=7))
    query = (
        'for $b in doc("book.xml")//book '
        "return <entry>{ $b/title/text() }<n>{ count($b/author) }</n></entry>"
    )
    expected = engine.execute(query).to_xml()
    sizes = []
    lift = eval_module._lift

    def counting(view, items):
        sizes.append(len(items))
        return lift(view, items)

    monkeypatch.setattr(eval_module, "_lift", counting)
    assert engine.execute(query).to_xml() == expected
    assert sizes.count(500) == 1, sizes


@pytest.mark.parametrize(
    "query",
    [
        'for $b in doc("book.xml")//book '
        "return <e>{ $b/title/text() }<n>{ count($b/author) }</n></e>",
        'for $b in doc("book.xml")//book return $b/author/name/text()',
        'for $t in virtualDoc("book.xml", "title { author { name } }")//title '
        "return <e>{ $t/text() }<n>{ count($t/author) }</n></e>",
    ],
)
def test_a_warm_grouped_path_scans_the_same_for_50_and_500_bindings(query):
    """Each context reads its runs off the view's run table by row: one
    read per child type and step, not one probe per context prefix."""
    scans = []
    for books in (50, 500):
        engine = Engine()
        engine.load("book.xml", books_document(books, seed=7))
        engine.execute(query)
        before = engine.stats.index_range_scans
        assert len(engine.execute(query)) >= books
        scans.append(engine.stats.index_range_scans - before)
    assert scans[0] == scans[1], scans


VIEW = "title { author { name } }"
COUNT = (
    f'for $t in virtualDoc("d.xml", "{VIEW}")//title '
    "return <e>{ $t/text() }<n>{ count($t/author) }</n></e>"
)


def _cold(service) -> str:
    """The answer of a fresh service over the current document."""
    fresh = QueryService(pool_size=1)
    fresh.load("d.xml", service.store("d.xml").document)
    return fresh.execute(COUNT).to_xml()


def test_a_view_kept_across_an_unrelated_update_answers_from_its_tables():
    service = QueryService(pool_size=1)
    service.load("d.xml", books_document(30, seed=4))
    service.execute(COUNT)
    view = service.view_cache.get(("d.xml", VIEW))
    tables = dict(view._child_run_tables)
    assert tables  # the grouped count read its runs by row
    # The first book's publisher's location: no type of the view is touched.
    location = service.store("d.xml").document.root.children[0].children[-1].children[0]
    service.update("d.xml", ReplaceText(location.children[0].pbn, "Elsewhere"))
    answer = service.execute(COUNT).to_xml()
    assert service.view_cache.get(("d.xml", VIEW)) is view
    assert view._child_run_tables == tables
    assert all(view._child_run_tables[key] is table for key, table in tables.items())
    assert answer == _cold(service)


def test_a_view_whose_types_an_update_touched_rebuilds_its_tables():
    service = QueryService(pool_size=1)
    service.load("d.xml", books_document(30, seed=4))
    before = service.execute(COUNT).to_xml()
    view = service.view_cache.get(("d.xml", VIEW))
    # A third author under the first book: the child type of title's runs.
    service.update("d.xml", InsertSubtree(
        parent=Pbn.parse("1.1"), fragment="<author><name>Fresh</name></author>"
    ))
    assert service.view_cache.get(("d.xml", VIEW)) is None  # evicted
    answer = service.execute(COUNT).to_xml()
    rebuilt = service.view_cache.get(("d.xml", VIEW))
    assert rebuilt is not view and rebuilt._child_run_tables
    assert answer != before and answer == _cold(service)


def _visits(engine, query, monkeypatch) -> int:
    meters = []
    build = CostBudget.meter
    monkeypatch.setattr(
        CostBudget, "meter", lambda self: meters.append(build(self)) or meters[-1]
    )
    engine.execute(query, budget=CostBudget(max_node_visits=10**9))
    monkeypatch.setattr(CostBudget, "meter", build)
    return meters[0].node_visits


@pytest.mark.parametrize(
    "query",
    [
        'for $b in doc("d.xml")//book return <e>{ $b/title/text() }{ count($b/author) }</e>',
        'for $b in doc("d.xml")//book where count($b/author) > 1 return $b/author/name',
        'for $t in virtualDoc("d.xml", "title { author { name } }")//title '
        "return <e>{ $t/text() }{ count($t/author) }</e>",
    ],
)
def test_budgets_charge_what_the_loop_charges(query, monkeypatch):
    engine = Engine()
    engine.load("d.xml", books_document(30, seed=4))
    grouped = _visits(engine, query, monkeypatch)
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    assert _visits(engine, query, monkeypatch) == grouped
    for kernels in (False, True):
        monkeypatch.setattr(Evaluator, "use_batch_kernels", kernels)
        engine.execute(query, budget=CostBudget(max_node_visits=grouped))
        with pytest.raises(QueryBudgetExceeded) as raised:
            engine.execute(query, budget=CostBudget(max_node_visits=grouped - 1))
        assert raised.value.to_json()["code"] == "budget_exceeded"
        assert raised.value.dimension == "node_visits"


def test_the_served_answer_to_a_budget_the_loop_exceeds_is_the_same_422(monkeypatch):
    import asyncio
    import json

    from repro.serve.app import ServingApp
    from repro.shard import ShardedService

    service = ShardedService(shards=1, pool_size=1)
    service.load("d.xml", books_document(30, seed=4))
    app = ServingApp(service)
    query = b'for $b in doc("d.xml")//book return <e>{ count($b/author) }</e>'
    answers = []
    for kernels in (False, True):
        monkeypatch.setattr(Evaluator, "use_batch_kernels", kernels)
        for visits in ("40", "10000"):
            response = asyncio.run(
                app.handle("POST", "/query", {"max_visits": visits}, {}, query)
            )
            report = json.loads(response.body) if response.status == 422 else None
            answers.append((response.status, report and report["code"]))
    assert answers[:2] == answers[2:] == [(422, "budget_exceeded"), (200, None)]


def test_the_step_row_guard_is_per_binding(monkeypatch):
    # 30 books, 3 authors each: the loop never makes a step of more than
    # 30 rows, and neither may the grouped step (90 authors in one call).
    engine = Engine()
    engine.load("d.xml", books_document(30, seed=4))
    query = 'for $b in doc("d.xml")//book return $b/author'
    for kernels in (False, True):
        monkeypatch.setattr(Evaluator, "use_batch_kernels", kernels)
        assert len(engine.execute(query, budget=CostBudget(max_step_rows=30))) > 30
        with pytest.raises(QueryBudgetExceeded) as raised:
            engine.execute(query, budget=CostBudget(max_step_rows=29))
        assert raised.value.dimension == "step_rows"
