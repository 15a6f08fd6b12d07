"""Nothing is copied or numbered on the answer path of the benchmark's
FLWR queries.

``books-invert.author-count`` and ``auction-flat.bid-count`` construct
one element per binding.  Evaluated and written with ``to_xml()`` — the
way the end-to-end benchmark runs them, virtual and over the stored
document — they must not deep-copy a stored node (``clone_subtree``),
materialize a virtual subtree (``VirtualDocument.copy_subtree``) or
number a tree (``assign_numbers``): the constructed answers are written
from references.  Navigating into an answer is what builds and numbers,
and the same counters show it.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.virtual_document import VirtualDocument
from repro.pbn import assign
from repro.query.engine import Engine
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.xmarklike import auction_document
from repro.xmlmodel import builder

#: (workload, query name, uri, document, the stored twin's text).
CASES = [
    (
        Q.BOOKS_INVERT,
        "author-count",
        "book.xml",
        lambda: books_document(30, seed=11),
        'for $b in doc("book.xml")//book '
        "return <entry>{ $b/title/text() }<n>{ count($b/author) }</n></entry>",
    ),
    (
        Q.AUCTION_FLAT,
        "bid-count",
        "auction.xml",
        lambda: auction_document(20, seed=11),
        'for $a in doc("auction.xml")/site/auctions/auction '
        "return <a>{ count($a/bid) }</a>",
    ),
]


@pytest.fixture
def calls(monkeypatch):
    """Per-function call counts of the three copy / numbering entry
    points, patched wherever a module bound them by name."""
    counts = {"clone_subtree": 0, "copy_subtree": 0, "assign_numbers": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, function in (
        ("clone_subtree", builder.clone_subtree),
        ("assign_numbers", assign.assign_numbers),
    ):
        wrapped = counting(name, function)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(
        VirtualDocument,
        "copy_subtree",
        counting("copy_subtree", VirtualDocument.copy_subtree),
    )
    return counts


def _engine(uri, build, workload) -> Engine:
    engine = Engine()
    engine.load(uri, build())
    engine.virtual(uri, workload.spec)  # the view exists before counting
    return engine


@pytest.mark.parametrize("workload,name,uri,build,stored", CASES, ids=[c[1] for c in CASES])
def test_benchmark_flwr_answers_copy_and_number_nothing(workload, name, uri, build, stored, calls):
    engine = _engine(uri, build, workload)
    virtual = Q.instantiate(workload.queries[name], Q.virtual_source(uri, workload.spec))
    calls.update(dict.fromkeys(calls, 0))
    for text in (virtual, stored):
        for mode in ("indexed", "tree"):
            assert engine.execute(text, mode=mode).to_xml().count("<") > 20
    assert calls == {"clone_subtree": 0, "copy_subtree": 0, "assign_numbers": 0}


def test_navigating_into_answers_copies_and_numbers(calls):
    workload, name, uri, build, stored = CASES[0]
    engine = _engine(uri, build, workload)
    virtual = Q.instantiate(workload.queries[name], Q.virtual_source(uri, workload.spec))
    calls.update(dict.fromkeys(calls, 0))
    # Each <entry> settles into a copy of its title text and its <n>; the
    # step's document-order sort numbers the constructed trees it compares.
    assert engine.execute(f"({virtual})/node()").to_xml()
    assert calls["copy_subtree"] > 0 and calls["assign_numbers"] > 0
    assert engine.execute(f"({stored})/node()").to_xml()
    assert calls["clone_subtree"] > 0
