"""No comparator on any union.

The ``served_mix`` workload's unions — ``doc(u)//title`` and
``virtualDoc(u, "title { author { name } }")//title`` over four books
documents, ``|``-chained — order by key: stored nodes by their PBN
components, virtual ones by one run per virtual type.  Evaluated and
written on one ``Engine`` and through a 2-shard ``ShardedService``, they
must not call the Section 5 comparator (``vpbn.compare_virtual_order``)
once — and neither does a union of two types of one tree of the
duplicating view, which merges by the first-copy order key.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import vpbn
from repro.query.engine import Engine
from repro.shard import ShardedService
from repro.workloads import queries as Q
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.xmlmodel.serializer import serialize

#: The served workload's view of its books documents.
BOOK_SPEC = "title { author { name } }"
URIS = [f"b{index}.xml" for index in range(4)]
UNIONS = {
    "stored": " | ".join(f'doc("{uri}")//title' for uri in URIS),
    "virtual": " | ".join(f'virtualDoc("{uri}", "{BOOK_SPEC}")//title' for uri in URIS),
}


@pytest.fixture
def calls(monkeypatch):
    """Call count of the comparator, patched wherever a module bound it
    by name."""
    counts = {"compare_virtual_order": 0}
    function = vpbn.compare_virtual_order

    def wrapped(*args, **kwargs):
        counts["compare_virtual_order"] += 1
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "compare_virtual_order", None) is function:
            monkeypatch.setattr(module, "compare_virtual_order", wrapped)
    return counts


def _texts() -> dict[str, str]:
    return {
        uri: serialize(books_document(40, seed=4100 + index, numbered=False))
        for index, uri in enumerate(URIS)
    }


@pytest.mark.parametrize("shape", sorted(UNIONS))
def test_served_unions_call_no_comparator(shape, calls):
    texts = _texts()
    engine = Engine()
    sharded = ShardedService(
        shards=2, pool_size=1, placement={uri: index % 2 for index, uri in enumerate(URIS)}
    )
    try:
        for uri, text in texts.items():
            engine.load(uri, text)
            sharded.load(uri, text)
        expected = engine.execute(UNIONS[shape])
        assert len(expected) == 4 * 40
        answer = expected.to_xml()
        assert sharded.execute(UNIONS[shape]).to_xml() == answer
    finally:
        sharded.close()
    assert calls == {"compare_virtual_order": 0}


def test_an_unkeyed_union_still_counts(calls):
    engine = Engine()
    engine.load("dblp.xml", dblp_document(8, seed=5))
    view = f'virtualDoc("dblp.xml", "{Q.DBLP_BY_AUTHOR.spec}")'
    title, year = engine.execute(f"{view}//article/title | {view}//article/year").items[:2]
    assert calls == {"compare_virtual_order": 0}
    vpbn.compare_virtual_order(title.vpbn, year.vpbn)
    assert calls == {"compare_virtual_order": 1}  # the counter is live
