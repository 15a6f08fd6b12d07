"""Path predicates set-at-a-time: ``[a/b op c]`` through the CAS kernel.

A predicate whose value side is a downward, predicate-free relative path
compiles to one :class:`~repro.query.joins.ValuePredicate`; the kernel
resolves the path on the (v)DataGuide, probes each leaf type's CAS column
once and projects the matched keys up to the candidates, which are
filtered *by key* before any node exists for them.  None of that may be
visible in an answer: every query here must come back byte-identical from

* the batch kernels (the default),
* the scalar per-item loop (``Evaluator.use_batch_kernels = False``),
* ``mode="tree"`` (pointer navigation for stored documents), and
* ``mode="sql"`` — the independent oracle,

over stored documents and over views that are chain-exact, inverting,
pruning and duplicating (where the Section 5 comparator is no total
order, and the first-copy order key still is), under
raw and succinct type columns, and after careted inserts and deletes on
a :class:`~repro.updates.durable.DurableStore` — reopened image included.

The second half pins the costs with exact counts, no clocks: the
predicate expression is never evaluated per candidate, each leaf type is
scanned once, and a view built after an update resolves nodes for the
rows it returns, not for the types it touches.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.dataguide.build import build_dataguide
from repro.obs.profile import build_profile, operators
from repro.pbn.number import Pbn
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.service import QueryService
from repro.storage.cas_index import CasColumns
from repro.storage.store import DocumentStore
from repro.updates.durable import DurableStore
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.queries import DBLP_BY_AUTHOR
from repro.workloads.treegen import random_document, random_spec

OPS = ("=", "!=", "<", "<=", ">", ">=")

_NAMES = ["Codd", "Date", "Knuth", "Hopper", "Wing"]
#: Numeric, non-numeric and mixed-coercion leaf values.
_BORN = ["1923", "1938", " 1906 ", "n/a", "", "1912.0"]
_PRICES = ["05", "5", "5.0", "12.5", "abc", " 7 "]


def library(seed: int, shelves: int = 3, books: int = 5) -> str:
    """A document with attributes, numeric / non-numeric / mixed leaves,
    books without authors, authors without names, and books one level
    deeper (inside a ``box``) so ``.//name`` and ``book/…`` differ."""
    rng = random.Random(seed)

    def author(rank: int) -> str:
        name = f"<name>{rng.choice(_NAMES)}</name>" if rng.random() < 0.85 else ""
        born = f"<born>{rng.choice(_BORN)}</born>" if rng.random() < 0.8 else ""
        return f'<author rank="{rank}">{name}{born}</author>'

    def book(index: int) -> str:
        year = rng.choice(["1970", "1984", "x", "2001"])
        authors = "".join(author(r) for r in range(1, rng.randrange(0, 4)))
        return (
            f'<book year="{year}"><title>T{index}</title>{authors}'
            f"<price>{rng.choice(_PRICES)}</price></book>"
        )

    parts = ["<lib>"]
    for shelf in range(shelves):
        parts.append(f'<shelf id="s{shelf}" floor="{rng.randrange(1, 12)}">')
        for index in range(books):
            text = book(shelf * 100 + index)
            parts.append(f"<box>{text}</box>" if rng.random() < 0.25 else text)
        parts.append("</shelf>")
    parts.append("</lib>")
    return "".join(parts)


#: Stored shapes over ``library()``.
LIBRARY_QUERIES = [
    # 2- and 3-step child paths
    '{s}//book[author/name = "Codd"]/title/text()',
    '{s}//shelf[book/author/name = "Knuth"]/@id',
    '{s}//lib[shelf/book/title >= "T1"]',
    # a trailing @attr and text()
    "{s}//book[author/@rank = 2]/title",
    "{s}//shelf[book/@year >= 1980]/@id",
    '{s}//book[author/name/text() != "Codd"]/title/text()',
    # `.//name` and `a//b`, fused to descendant steps
    '{s}//shelf[.//name = "Codd"]/@id',
    "{s}//lib[.//born < 1930]",
    '{s}//shelf[box//name = "Date"]',
    '{s}//shelf[.//author/name = "Wing"]/@id',
    # wildcards inside the path
    '{s}//shelf[*/author/name = "Codd"]/@id',
    '{s}//book[*/* = "Hopper"]/title',
    # the constant on the left
    '{s}//book["Codd" = author/name]/title/text()',
    "{s}//shelf[1930 < book/author/born]/@id",
    # empty leaf sets: no such type below the candidate
    '{s}//book[author/nickname = "x"]',
    '{s}//title[author/name = "Codd"]',
    '{s}//book[title/text()/x = "T1"]',
    # chained predicates intersect
    '{s}//book[author/name = "Codd"][author/born < 1930][@year >= 1900]/title',
    '{s}//book[author/name >= "D"][price != 5]/title/text()',
    # candidates from batch contexts, not the lone document
    '{s}//shelf/book[author/name = "Codd"]/title',
    '{s}//shelf/descendant::book[author/born >= 1920]/title',
    '{s}//name/ancestor::book[author/name = "Date"]/title',
    '{s}//book/following-sibling::book[author/name >= "K"]/title',
    '{s}//shelf/descendant-or-self::*[author/name = "Knuth"]',
]

#: Every operator against numeric, non-numeric and mixed constants.
_CONSTANTS = ["1938", '"1938"', '"n/a"', '""', "1912", '"Knuth"', "5", '"05"', "12.5"]
LIBRARY_QUERIES += [
    f"{{s}}//book[author/born {op} {constant}]/title/text()"
    for op in OPS
    for constant in _CONSTANTS[:5]
] + [
    f"{{s}}//shelf[book/price {op} {constant}]/@id"
    for op in OPS
    for constant in _CONSTANTS[5:]
]


def _payload(result):
    return (result.to_xml(), result.values())


def arms(engine, query: str, monkeypatch) -> dict:
    """The query's payload from each arm."""
    out = {"batch": _payload(engine.execute(query))}
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    out["scalar"] = _payload(engine.execute(query))
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    out["tree"] = _payload(engine.execute(query, mode="tree"))
    out["sql"] = _payload(engine.execute(query, mode="sql"))
    return out


def assert_arms_agree(engine, query: str, monkeypatch, context: str = "") -> tuple:
    answers = arms(engine, query, monkeypatch)
    for arm, payload in answers.items():
        assert payload == answers["scalar"], f"{arm} != scalar: {query} {context}"
    return answers["scalar"]


def kernels(engine, query: str) -> dict:
    """``{step label: (kernel, reason)}`` of the predicate-bearing steps."""
    _, trace = engine.explain_analyze(query)
    return {
        row.detail: (row.attrs.get("kernel"), row.attrs.get("reason"))
        for row in operators(build_profile(trace))
        if row.attrs.get("predicates")
    }


# -- stored documents -------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_stored_path_predicates_match_every_arm(seed, monkeypatch, each_codec):
    for codec in each_codec():
        engine = Engine()
        engine.load("lib.xml", library(seed))
        nonempty = 0
        for template in LIBRARY_QUERIES:
            query = template.replace("{s}", 'doc("lib.xml")')
            xml, _ = assert_arms_agree(engine, query, monkeypatch, f"{codec} seed={seed}")
            nonempty += bool(xml)
        assert nonempty >= len(LIBRARY_QUERIES) // 2  # the suite is not vacuous


def test_stored_path_predicates_run_on_the_cas_kernel():
    engine = Engine()
    engine.load("lib.xml", library(0))
    for template in LIBRARY_QUERIES:
        query = template.replace("{s}", 'doc("lib.xml")')
        for label, (kernel, reason) in kernels(engine, query).items():
            assert (kernel, reason) == ("cas", None), (query, label)


# -- views ------------------------------------------------------------------

#: ``(document, spec, decline reason, queries)`` per view class; ``{s}``
#: is the view.
CHAIN_EXACT = (
    "books",
    "title { author { name } }",
    None,
    [
        '{s}//title[author/name = "Codd"]/text()',
        '{s}//title[author/name/text() >= "K"]',
        '{s}//title[.//name != "Codd"]/author',
        '{s}//title["Turing" = author/name]/text()',
        '{s}//title[author/name = "Nobody"]',
        '{s}//title[author/name >= "D"][author/name < "H"]/text()',
        '{s}//title/author[name/text() = "Wing"]',
    ],
)
#: The paper's Case 2.  In ``author``'s chain a ``name`` is identified
#: by a 3-component prefix only and shares its level with the title's
#: text; the prefix resolves to the name's full key, which no text key
#: can be prefix-compatible with, so the tree has an order key and
#: every step stays on the kernel.
INVERTING = (
    "books",
    "title { name { author } }",
    None,
    [
        '{s}//title[name/author = ""]',
        '{s}//title[name/author != "x"]/text()',
        '{s}//title[name/text() = "Codd"]/text()',
        '{s}//title[.//author >= ""]/name',
        '{s}//title/name[author = ""]',
    ],
)
PRUNING = (
    "library",
    "shelf { lib.shelf.book { author { name } price } }",
    None,
    [
        # author's stored value is rank + name + born; the view drops born
        '{s}//shelf[book/author = "1Codd"]',
        '{s}//shelf[book/author/name = "Codd"]/book/price',
        '{s}//book[author = "2Knuth"]/price/text()',
        '{s}//shelf[book/author/born = "1923"]',  # pruned away: never matches
        "{s}//shelf[book/price <= 5]/book",
        '{s}//shelf[.//name >= "K"]',
    ],
)
#: Case 3: authors and price hang off the title through their shared book.
LCA_RELATED = (
    "library",
    "lib.shelf.book.title { author { name } price }",
    None,
    [
        '{s}//title[author/name = "Codd"]/text()',
        "{s}//title[price > 5]/author/name",
        '{s}//title[author/name = "Date"][price != "abc"]',
    ],
)
#: An lca-related edge *inside* the path: an author pins its title only
#: up to the shared book, so projecting matched authors to titles is a
#: join through the title column, not a truncation.
LCA_JOIN = (
    "books",
    "book { title { author { name } } }",
    None,
    [
        '{s}//book[title/author/name = "Codd"]/title/text()',
        '{s}//book[title/author = "Turing"]',
        '{s}//book[.//name >= "K"][title/author/name < "M"]/title/text()',
        '{s}//book[title/author/name = "Nobody"]',
        '{s}//book/title[author/name != "Codd"]/text()',
    ],
)


def _view_engine(kind: str) -> Engine:
    engine = Engine()
    if kind == "books":
        engine.load("d.xml", books_document(18, seed=11))
    else:
        engine.load("d.xml", library(5))
    return engine


@pytest.mark.parametrize(
    "case", [CHAIN_EXACT, INVERTING, PRUNING, LCA_RELATED, LCA_JOIN],
    ids=["chain-exact", "inverting", "pruning", "lca-related", "lca-join"],
)
def test_view_path_predicates_match_every_arm(case, monkeypatch, each_codec):
    kind, spec, declined, templates = case
    expected = ("scalar", declined) if declined else ("cas", None)
    for codec in each_codec():
        engine = _view_engine(kind)
        source = f'virtualDoc("d.xml", "{spec}")'
        hit = 0
        for template in templates:
            query = template.replace("{s}", source)
            xml, _ = assert_arms_agree(engine, query, monkeypatch, f"{codec} {spec}")
            hit += bool(xml)
            for label, outcome in kernels(engine, query).items():
                assert outcome == expected, (query, label)
        assert hit >= len(templates) // 2


def test_a_pruned_child_does_not_leak_into_the_parent_value():
    engine = Engine()
    engine.load("d.xml", library(5))
    source = 'virtualDoc("d.xml", "shelf { lib.shelf.book { author { name } price } }")'
    assert len(engine.execute(f'{source}//shelf[book/author = "1Codd"]')) >= 1
    assert len(engine.execute('doc("d.xml")//shelf[book/author = "1Codd"]')) == 0
    assert len(engine.execute(f"{source}//shelf[book/author/born >= 0]")) == 0


def test_non_linearizable_view_stays_on_the_cas_kernel(monkeypatch):
    # dblp-by-author duplicates an article under each of its authors, so
    # the Section 5 comparator is no total order on it — but the
    # first-copy order key is: every step, one type or several of a
    # tree, stays on the kernel.
    engine = Engine()
    engine.load("dblp.xml", dblp_document(20, seed=4))
    source = f'virtualDoc("dblp.xml", "{DBLP_BY_AUTHOR.spec}")'
    for template in (
        '{s}//author[article/title >= "M"]',
        "{s}//author[inproceedings/year = 2013]/inproceedings/title/text()",
        "{s}//author/article[year >= 2000]/title",
        '{s}//author/*[title >= "M"]/year',  # article | inproceedings: forest
        '{s}//author/descendant::title[. >= "M"]',  # forest, keys filtered
        '{s}//author/descendant-or-self::author[article/year >= 2000]',
    ):
        query = template.replace("{s}", source)
        assert_arms_agree(engine, query, monkeypatch)
        for label, (kernel, reason) in kernels(engine, query).items():
            assert (kernel, reason) == ("cas", None), (query, label)
    # An author's text and its articles are two types of one tree: they
    # merge by the first-copy key, filtered by key first.
    for template in ('{s}//author/node()[. >= "M"]', '{s}//article/*[. >= "M"]'):
        query = template.replace("{s}", source)
        assert_arms_agree(engine, query, monkeypatch)
        for label, (kernel, reason) in kernels(engine, query).items():
            assert (kernel, reason) == ("cas", None), (query, label)


# -- generated cases: the sql oracle must agree on every one ----------------


def _generated(rng: random.Random, roots, children_of, name_of, is_leaf, count: int):
    """``//T[path op c]`` over a type tree: a candidate type with
    something below it, a 1-3 step path down real types (sometimes a
    wildcard step, ``.//`` or a trailing ``text()``), any operator, a
    constant from the generators' vocabulary."""
    types = []
    stack = list(roots)
    while stack:
        current = stack.pop()
        below = [c for c in children_of(current) if not is_leaf(c)]
        if below:
            types.append(current)
        stack.extend(below)
    queries = []
    for _ in range(count if types else 0):
        top = current = rng.choice(types)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            below = [c for c in children_of(current) if not is_leaf(c)]
            if not below:
                break
            current = rng.choice(below)
            steps.append("*" if rng.random() < 0.15 else name_of(current))
        path = "/".join(steps)
        roll = rng.random()
        if roll < 0.2:
            path = f".//{steps[-1]}"
        elif roll < 0.35:
            path += "/text()"
        elif roll < 0.45:
            path += "/@id"
        constant = rng.choice(['"red"', '"green"', '"plum"', '""', "500", '"42"'])
        comparison = f"{path} {rng.choice(OPS)} {constant}"
        if rng.random() < 0.2:
            comparison += f'][. != "{rng.choice(["red", "teal"])}"'
        queries.append(f"//{name_of(top)}[{comparison}]")
    return queries


@pytest.mark.parametrize("seed", range(12))
def test_generated_stored_cases_agree_with_the_sql_oracle(seed, monkeypatch):
    document = random_document(
        seed + 500, max_depth=5, max_children=3, attribute_probability=0.4
    )
    engine = Engine()
    store = engine.load("rand.xml", document)
    queries = _generated(
        random.Random(seed),
        store.guide.roots,
        lambda t: t.children,
        lambda t: t.name,
        lambda t: t.is_text or t.is_attribute,
        10,
    )
    for query in queries:
        assert_arms_agree(engine, f'doc("rand.xml"){query}', monkeypatch, f"seed={seed}")


@pytest.mark.parametrize("seed", range(16))
def test_generated_view_cases_agree_with_the_sql_oracle(seed, monkeypatch):
    document = random_document(seed + 300, max_depth=4, max_children=3)
    spec = random_spec(build_dataguide(document), seed, max_roots=2, max_children=3, max_depth=3)
    engine = Engine()
    engine.load("rand.xml", document)
    vdoc = engine.build_virtual("rand.xml", spec)
    queries = _generated(
        random.Random(seed),
        vdoc.vguide.roots,
        lambda t: t.children,
        lambda t: t.name,
        lambda t: t.is_text or t.is_attribute,
        8,
    )
    source = f'virtualDoc("rand.xml", "{spec}")'
    for query in queries:
        assert_arms_agree(engine, f"{source}{query}", monkeypatch, f"seed={seed} spec={spec}")


# -- after updates, on a durable store --------------------------------------

UPDATE_QUERIES = [
    'doc("book.xml")//book[author/name = "Codd"]/title/text()',
    'doc("book.xml")//data[book/author/name = "Fresh"]/book/title/text()',
    'doc("book.xml")//book[.//location != "Oslo"][author/name >= "K"]/title',
    'virtualDoc("book.xml", "title { author { name } }")//title[author/name = "Codd"]/text()',
    'virtualDoc("book.xml", "title { author { name } }")//title[.//name = "Fresh"]',
    'virtualDoc("book.xml", "title { name { author } }")//title[name/author = ""]/text()',
]


def _service_arms(service, query: str, monkeypatch) -> tuple:
    batch = _payload(service.execute(query))
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    scalar = _payload(service.execute(query))
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    tree = _payload(service.execute(query, mode="tree"))
    assert batch == scalar == tree, query
    return batch


def test_path_predicates_after_careted_updates_and_reopen(tmp_path, monkeypatch):
    rng = random.Random(21)
    directory = str(tmp_path / "store")
    service = QueryService(pool_size=2)
    durable = DurableStore.create(directory, books_document(30, seed=8))
    service.adopt_durable(durable)
    for query in UPDATE_QUERIES:  # warm views, columns and CAS
        _service_arms(service, query, monkeypatch)
    for step in range(24):
        books = service.store("book.xml").document.root.children
        target = rng.choice(books)
        roll = step % 4
        if roll == 0:  # careted: a fraction between two sibling ordinals
            op = InsertSubtree(
                Pbn(1),
                "<book><title>Ins</title><author><name>Fresh</name></author>"
                "<author><name>Codd</name></author>"
                "<publisher><location>Oslo</location></publisher></book>",
                before=target.pbn,
            )
        elif roll == 1:
            name = rng.choice([n for n in target.iter_subtree() if n.name == "name"])
            op = ReplaceText(name.children[0].pbn, rng.choice(["Fresh", "Codd", "Knuth"]))
        elif roll == 2:
            op = DeleteSubtree(target.pbn)
        else:
            op = ReplaceText(target.children[0].children[0].pbn, f"Retitled {step}")
        service.update("book.xml", op)
        for query in UPDATE_QUERIES:
            _service_arms(service, query, monkeypatch)
    store = service.store("book.xml")
    raw = [
        type_id
        for type_id in range(len(store.types_by_id))
        if (column := store.type_index.column(type_id)) is not None
        and type(column).__name__ == "Column"
    ]
    assert raw, "careted ordinals should have dropped some column to raw tuples"
    live = [_service_arms(service, query, monkeypatch) for query in UPDATE_QUERIES]
    assert any(xml for xml, _ in live)
    service.checkpoint("book.xml")
    durable.close()

    reopened = QueryService(pool_size=1)
    recovered = reopened.open_durable(directory)
    try:
        assert [
            _service_arms(reopened, query, monkeypatch) for query in UPDATE_QUERIES
        ] == live
    finally:
        recovered.close()


# -- costs: exact counts, no clocks -----------------------------------------

BY_NAME_STORED = 'doc("book.xml")//book[author/name = "Codd"]/title/text()'
BY_NAME_VIRTUAL = (
    'virtualDoc("book.xml", "title { author { name } }")'
    '//title[author/name = "Codd"]/text()'
)


@pytest.fixture(scope="module")
def books300():
    return books_document(300, seed=1)


@pytest.mark.parametrize("query", [BY_NAME_STORED, BY_NAME_VIRTUAL], ids=["stored", "virtual"])
def test_predicate_is_never_evaluated_per_candidate(query, books300):
    engine = Engine()
    engine.load("book.xml", books300)
    filters, evaluations, scans = [], [], []
    real_filter, real_evaluate = Evaluator._filter, Evaluator.evaluate
    real_scan = CasColumns.matching_keys

    def counting_filter(self, items, predicate, context):
        filters.append(len(items))
        return real_filter(self, items, predicate, context)

    def counting_evaluate(self, expr, context):
        evaluations.append(type(expr).__name__)
        return real_evaluate(self, expr, context)

    def counting_scan(self, op, constant):
        scans.append(len(self))
        return real_scan(self, op, constant)

    with (
        mock.patch.object(Evaluator, "_filter", counting_filter),
        mock.patch.object(Evaluator, "evaluate", counting_evaluate),
        mock.patch.object(CasColumns, "matching_keys", counting_scan),
    ):
        answer = engine.execute(query)
    assert 30 <= len(answer) < 300
    assert filters == []  # the scalar predicate loop never ran
    # The query's own expression tree, once: the path, doc()/virtualDoc()
    # and its literal arguments — nothing per candidate.
    assert len(evaluations) <= 4, evaluations
    assert "BinaryOp" not in evaluations
    assert len(scans) == 1  # one matching_keys scan: the one leaf type, `name`


def test_first_virtual_read_after_an_update_resolves_only_its_answer(books300):
    service = QueryService(pool_size=1)
    service.load("book.xml", books300)
    for query in (BY_NAME_VIRTUAL, BY_NAME_STORED):
        service.execute(query).to_xml()
    title = service.execute('(doc("book.xml")//title/text())[7]').items[0]
    service.update("book.xml", ReplaceText(Pbn.parse(str(title.pbn)), "Retitled"))
    lookups = []
    real = DocumentStore.node_by_components

    def counting(self, components):
        lookups.append(components)
        return real(self, components)

    with mock.patch.object(DocumentStore, "node_by_components", counting):
        answer = service.execute(BY_NAME_VIRTUAL)
        answer.to_xml()
    # O(answer): the matched titles and their text nodes — not the 300
    # titles, 600-odd names and 300 texts of the types the query touches.
    assert 30 <= len(answer) < 100
    assert len(lookups) <= 2 * len(answer), len(lookups)
