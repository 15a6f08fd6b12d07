"""The content-and-structure (CAS) kernel vs the scalar predicate loop.

The CAS index answers single-comparison value predicates for whole
context batches (``child::price[. < 10]`` shapes) with value range scans
joined against the structural kernels' candidate runs.  Like the
columnar kernels it must be invisible above the navigator layer:
flipping :attr:`Evaluator.use_batch_kernels` must not change a single
item or its position, for every strategy and for every coercion edge
``_compare_pair`` defines.  These tests pin that down, plus the
observable plumbing the kernel adds (EXPLAIN ANALYZE ``kernel=cas``
rows, ``engine.kernel{kernel=,reason=}`` counters) and its decline gates
(non-compilable predicates, document candidates, modes, axes).
"""

from __future__ import annotations

import re

import pytest

from repro.core.virtual_document import VNode
from repro.dataguide.build import build_dataguide
from repro.obs.profile import build_profile, operators
from repro.pbn.columnar import ValueColumn
from repro.query import ast as qast
from repro.query.engine import Engine
from repro.query.eval import Evaluator
from repro.query.joins import ValuePredicate, compile_value_predicate
from repro.service import QueryService
from repro.shard import ShardedService
from repro.workloads.books import books_document
from repro.workloads.querygen import random_queries
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.nodes import Node

#: Predicate shapes the compiler accepts — every comparison operator, all
#: three targets, numeric and string constants, chained predicates.
VALUE_QUERIES = [
    '//*[. = "red"]',
    '//*[. != "red"]',
    '//*[. < "green"]',
    '//*[text() >= "plum"]',
    "//*[@id < 500]",
    "//*[@id >= 500]/@id",
    '//*[@id != "42"]',
    "//*[* <= \"blue\"]",
    '//a[. > "b"]',
    '//b[. = "teal"][. != "red"]',
    '//*[500 > @id]',  # constant on the left: the compiler flips the op
    '//*[. = "red"]/following-sibling::*',
]


def _fingerprint(result) -> list:
    out = []
    for item in result.items:
        if isinstance(item, VNode):
            out.append(("vnode", id(item.vtype), id(item.node)))
        elif isinstance(item, Node):
            out.append(("node", id(item)))
        else:
            out.append(("atom", type(item).__name__, repr(item)))
    return out


def _both_ways(engine, query, monkeypatch, mode=None):
    monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
    scalar = _fingerprint(engine.execute(query, mode=mode))
    monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
    batch = _fingerprint(engine.execute(query, mode=mode))
    return scalar, batch


# -- the value-run primitive ------------------------------------------------


def test_value_column_run_bounds():
    column = ValueColumn([(5.0, 0), (1.0, 1), (3.0, 2), (3.0, 3), (9.0, 4)])
    assert column.values == [1.0, 3.0, 3.0, 5.0, 9.0]
    assert column.run_bounds("=", 3.0) == ((1, 3),)
    assert column.run_bounds("!=", 3.0) == ((0, 1), (3, 5))
    assert column.run_bounds("<", 3.0) == ((0, 1),)
    assert column.run_bounds("<=", 3.0) == ((0, 3),)
    assert column.run_bounds(">", 3.0) == ((3, 5),)
    assert column.run_bounds(">=", 3.0) == ((1, 5),)
    assert sorted(column.matching_ranks("!=", 3.0)) == [0, 1, 4]
    with pytest.raises(ValueError):
        column.run_bounds("~", 3.0)


# -- predicate compilation --------------------------------------------------


def _child(name: str) -> qast.PathExpr:
    return qast.PathExpr(
        None, (qast.Step("child", qast.NodeTest("name", name)),)
    )


def test_compile_accepts_the_three_targets():
    dot = compile_value_predicate(
        qast.BinaryOp("<", qast.ContextItem(), qast.Literal(10))
    )
    assert dot == ValuePredicate("<", 10, "self", None)
    child = compile_value_predicate(
        qast.BinaryOp("=", _child("price"), qast.Literal("x"))
    )
    assert child.axis == "child" and child.test.name == "price"
    attr = compile_value_predicate(
        qast.BinaryOp(
            ">=",
            qast.PathExpr(
                None, (qast.Step("attribute", qast.NodeTest("name", "id")),)
            ),
            qast.Literal(3),
        )
    )
    assert attr.axis == "attribute"


def test_compile_flips_a_left_hand_constant():
    pred = compile_value_predicate(
        qast.BinaryOp("<", qast.Literal(5), qast.ContextItem())
    )
    assert pred == ValuePredicate(">", 5, "self", None)
    pred = compile_value_predicate(
        qast.BinaryOp("=", qast.Literal("x"), _child("t"))
    )
    assert pred.op == "=" and pred.axis == "child"


def test_compile_accepts_downward_paths():
    # Multi-step and descendant paths compile to one predicate whose path
    # is the (axis, test) steps below the candidate.
    two_step = compile_value_predicate(
        qast.BinaryOp(
            "=",
            qast.PathExpr(None, _child("a").steps + _child("b").steps),
            qast.Literal(1),
        )
    )
    assert [(axis, test.name) for axis, test in two_step.path] == [
        ("child", "a"),
        ("child", "b"),
    ]
    # `.//x` as the parser writes it: fused to one descendant step.
    fused = compile_value_predicate(
        qast.BinaryOp(
            "=",
            qast.PathExpr(
                qast.ContextItem(),
                (
                    qast.Step("descendant-or-self", qast.NodeTest("node")),
                    qast.Step("child", qast.NodeTest("name", "x")),
                ),
            ),
            qast.Literal(1),
        )
    )
    assert [(axis, test.name) for axis, test in fused.path] == [("descendant", "x")]
    raw = compile_value_predicate(
        qast.BinaryOp(
            "=",
            qast.PathExpr(
                None, (qast.Step("descendant", qast.NodeTest("name", "x")),)
            ),
            qast.Literal(1),
        )
    )
    assert raw == fused
    assert compile_value_predicate(
        qast.BinaryOp("<", qast.ContextItem(), qast.Literal(10))
    ).path == ()


def test_compile_declines_everything_else():
    cases = [
        qast.Literal(1),  # not a comparison
        qast.BinaryOp("and", qast.ContextItem(), qast.Literal(1)),
        qast.BinaryOp("=", qast.ContextItem(), qast.ContextItem()),  # no literal
        qast.BinaryOp("=", qast.Literal(1), qast.Literal(2)),  # no target
        qast.BinaryOp("=", qast.ContextItem(), qast.Literal(True)),  # bool
        # upward steps leave the candidate's subtree
        qast.BinaryOp(
            "=",
            qast.PathExpr(
                None,
                _child("a").steps
                + (qast.Step("parent", qast.NodeTest("name", "x")),),
            ),
            qast.Literal(1),
        ),
        # a function call is not a path; an absolute path is not relative
        qast.BinaryOp(
            "=", qast.FuncCall("string", (_child("a"),)), qast.Literal("1")
        ),
        qast.BinaryOp(
            "=",
            qast.PathExpr(qast.RootExpr(), _child("a").steps),
            qast.Literal(1),
        ),
        # a positional predicate on a later step of the path
        qast.BinaryOp(
            "=",
            qast.PathExpr(
                None,
                _child("a").steps
                + (
                    qast.Step(
                        "child", qast.NodeTest("name", "b"), (qast.Literal(2),)
                    ),
                ),
            ),
            qast.Literal(1),
        ),
        # a predicate inside the target step
        qast.BinaryOp(
            "=",
            qast.PathExpr(
                None,
                (
                    qast.Step(
                        "child",
                        qast.NodeTest("name", "x"),
                        (qast.Literal(1),),
                    ),
                ),
            ),
            qast.Literal(1),
        ),
    ]
    for expr in cases:
        assert compile_value_predicate(expr) is None, expr


# -- batch == scalar, randomized -------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_indexed_cas_matches_scalar(seed, monkeypatch):
    document = random_document(
        seed + 300, max_depth=4, max_children=3, attribute_probability=0.4
    )
    engine = Engine()
    engine.load("rand.xml", document)
    for template in VALUE_QUERIES:
        query = f'doc("rand.xml"){template}'
        scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
        assert batch == scalar, f"seed={seed} query={template}"


@pytest.mark.parametrize("seed", range(6))
def test_virtual_cas_matches_scalar(seed, monkeypatch):
    document = random_document(seed + 300, max_depth=4, max_children=3)
    guide = build_dataguide(document)
    spec = random_spec(guide, seed, max_roots=2, max_children=3, max_depth=3)
    engine = Engine()
    engine.load("rand.xml", document)
    source = f'virtualDoc("rand.xml", "{spec}")'
    for template in VALUE_QUERIES:
        if "@id" in template:
            continue  # virtual views project elements only
        query = f"{source}{template}"
        scalar, batch = _both_ways(engine, query, monkeypatch)
        assert batch == scalar, f"seed={seed} query={template}"


def test_virtual_values_are_the_pruned_subtree_text(monkeypatch):
    # A view that prunes children changes element string values: `book`
    # keeps only its names, so the virtual CAS must index the *virtual*
    # text, not the stored one.
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=7))
    source = 'virtualDoc("book.xml", "book { name }")'
    for query in (
        f'{source}//book[. = "Codd"]',
        f'{source}//book[. >= "M"]',
        f'{source}//book[name != "Turing"]',
    ):
        scalar, batch = _both_ways(engine, query, monkeypatch)
        assert batch == scalar, query
    # Sanity: some single-author book matches by its pruned value, while
    # the stored book value (title + names + city) never equals a name.
    matched = engine.execute(f'{source}//book[. = "Codd"]')
    assert len(matched.items) >= 1
    assert len(engine.execute('doc("book.xml")//book[. = "Codd"]')) == 0


# -- coercion parity --------------------------------------------------------

COERCION_DOC = (
    "<r>"
    "<v>05</v><v>5</v><v> 5 </v><v>5.0</v><v>12</v>"
    "<v>nan</v><v>inf</v><v>red</v><v></v><v>NaN</v>"
    "</r>"
)

COERCION_QUERIES = [
    "//v[. = 5]",
    '//v[. = "05"]',  # numeric-coercible constant: numeric regime
    "//v[. != 5]",
    "//v[. < 10]",
    "//v[. >= 5]",
    '//v[. = "nan"]',  # NaN constant: string regime
    '//v[. < "red"]',
    '//v[. = ""]',
    '//v[. >= "5"]',
    "//r[v = 12]",
    '//r[v != "red"]',
]


def test_cas_coercion_matches_compare_pair(monkeypatch):
    engine = Engine()
    engine.load("c.xml", COERCION_DOC)
    for template in COERCION_QUERIES:
        query = f'doc("c.xml"){template}'
        scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
        assert batch == scalar, template
    # Spot-check the semantics, not just the agreement: "05", "5", " 5 ",
    # and "5.0" all coerce to 5; "nan"/"red"/""/"NaN"/"inf" fall to the
    # string regime against a numeric constant.
    assert len(engine.execute('doc("c.xml")//v[. = 5]')) == 4
    assert len(engine.execute('doc("c.xml")//v[. = "05"]')) == 4
    assert len(engine.execute('doc("c.xml")//v[. != 5]')) == 6
    assert len(engine.execute('doc("c.xml")//v[. = "nan"]')) == 1


# -- EXPLAIN ANALYZE and metrics --------------------------------------------


def test_explain_analyze_rows_carry_cas_kernel():
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=4))
    _, trace = engine.explain_analyze(
        'doc("book.xml")//author[name >= "M"]/name', mode="indexed"
    )
    kernels = {
        row.detail: row.attrs.get("kernel")
        for row in operators(build_profile(trace))
    }
    assert kernels["descendant::author"] == "cas"
    assert kernels["child::name"] == "columnar"


def test_non_compilable_predicates_stay_scalar():
    engine = Engine()
    engine.load("book.xml", books_document(12, seed=4))
    for query in (
        'doc("book.xml")//author[count(name) >= 1]',
        'doc("book.xml")//author[name = "Codd" and name != "Wing"]',
        'doc("book.xml")//name[2]',
    ):
        _, trace = engine.explain_analyze(query, mode="indexed")
        kernels = {
            row.detail: row.attrs.get("kernel")
            for row in operators(build_profile(trace))
        }
        assert all(value != "cas" for value in kernels.values()), query


def test_document_candidates_decline(monkeypatch):
    # ancestor::node() from stored contexts includes the document, whose
    # string value no type's CAS columns cover — the kernel must decline
    # rather than silently drop it.
    engine = Engine()
    engine.load("book.xml", books_document(6, seed=9))
    query = 'doc("book.xml")//name/ancestor::node()[. >= "A"]'
    scalar, batch = _both_ways(engine, query, monkeypatch, mode="indexed")
    assert batch == scalar
    _, trace = engine.explain_analyze(query, mode="indexed")
    kernels = {
        row.detail: row.attrs.get("kernel")
        for row in operators(build_profile(trace))
    }
    assert kernels["ancestor::node()"] == "scalar"


def test_non_linearizable_view_filters_by_key(monkeypatch):
    # Same cyclic view as the columnar order test (seed 31 / spec 1031):
    # the Section 5 comparator is no order on it, the first-copy key is —
    # so the CAS filters before the merge, and the loop agrees.
    document = random_document(31, max_depth=5, max_children=4)
    guide = build_dataguide(document)
    spec = random_spec(guide, 1031)
    engine = Engine()
    engine.load("cyclic.xml", document)
    source = f'virtualDoc("cyclic.xml", "{spec}")'
    scalar, batch = _both_ways(engine, f'{source}//*/descendant::*[. != "blue"]', monkeypatch)
    assert batch == scalar
    for template, step in (
        ('//*[. = "red"]', "descendant::*"),
        ('//*/child::*[. != "blue"]', "child::*"),
    ):
        scalar, batch = _both_ways(engine, f"{source}{template}", monkeypatch)
        assert batch == scalar, template
        _, trace = engine.explain_analyze(f"{source}{template}")
        kernels = {
            row.detail: row.attrs.get("kernel")
            for row in operators(build_profile(trace))
            if row.attrs.get("predicates")
        }
        assert kernels == {step: "cas"}, template


#: One query per decline reason, with the strategy it runs under.
DECLINES = {
    "predicate-shape": ('doc("book.xml")//book[count(author) > 1]', None),
    "heterogeneous-context": (
        '(doc("book.xml")//author | doc("more.xml")//author)/name[. >= "M"]',
        None,
    ),
    "document-candidate": (
        'doc("book.xml")//name/ancestor::node()[. >= "A"]',
        None,
    ),
    "mode": ('doc("book.xml")//name[. >= "M"]', "tree"),
    "axis": ('doc("book.xml")//name/self::name[. >= "M"]', None),
}


def test_cas_hit_and_decline_counters(monkeypatch):
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(10, seed=5))
    service.load("more.xml", books_document(4, seed=6))

    def items(**labels):
        return service.metrics.counter("engine.kernel", labels=labels)

    service.execute('doc("book.xml")//name[. >= "M"]')
    assert items(kernel="cas") == 1  # the one context: the document
    for reason, (query, mode) in DECLINES.items():
        assert items(kernel="scalar", reason=reason) == 0, reason
        batch = service.execute(query, mode=mode)
        declined = items(kernel="scalar", reason=reason)
        # ... and every decline is sound: the scalar loop's bytes.
        monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
        scalar = service.execute(query, mode=mode)
        monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
        assert batch.to_xml() == scalar.to_xml(), reason
        # EXPLAIN ANALYZE prints the reason on the scalar row it explains.
        lines = service.explain(query, mode=mode)["rendered"].splitlines()
        rows = [line for line in lines if "predicates=" in line]
        assert rows and all(
            "kernel=scalar" in row and f"reason={reason}" in row for row in rows
        ), (reason, rows)
        # ... and the counter holds the context items of those rows.
        assert declined == sum(
            int(re.search(r"items_in=(\d+)", line).group(1))
            for line in lines
            if f"reason={reason}" in line
        ) > 0, reason
    assert items(kernel="cas") == 1


# -- the generated workload actually exercises the kernel -------------------


def test_generated_queries_hit_the_cas_kernel():
    engine = Engine()
    engine.load(
        "rand.xml",
        random_document(5, max_depth=4, max_children=3,
                        attribute_probability=0.4),
    )
    kernels = set()
    for query in random_queries(77, ["a", "b", "c", "d"], 48):
        text = query.text('doc("rand.xml")')
        _, trace = engine.explain_analyze(text, mode="indexed")
        kernels.update(
            row.attrs.get("kernel")
            for row in operators(build_profile(trace))
            if row.attrs.get("kernel")
        )
    assert "cas" in kernels, f"no generated query batched: {kernels}"
    assert "scalar" in kernels  # ... and the decline path is exercised too


# -- the sharded scatter path -----------------------------------------------


def test_sharded_value_predicates_match_unsharded():
    sharded = ShardedService(shards=3, pool_size=1)
    single = ShardedService(shards=1, pool_size=1)
    try:
        for seed in range(3):
            uri = f"doc{seed}.xml"
            for service in (sharded, single):
                service.load(
                    uri,
                    random_document(seed + 40, max_depth=4, max_children=3,
                                    attribute_probability=0.4),
                )
        for seed in range(3):
            for template in VALUE_QUERIES:
                query = f'doc("doc{seed}.xml"){template}'
                a = sharded.execute(query, mode="indexed")
                b = single.execute(query, mode="indexed")
                assert a.to_xml() == b.to_xml(), query
                assert a.values() == b.values(), query
    finally:
        sharded.close()
        single.close()
