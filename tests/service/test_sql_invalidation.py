"""Copy-on-write invalidation of the ``strategy=sql`` accel tables.

A durable update publishes a *new* immutable store object; ``Engine.adopt``
drops (and closes) the previous store's accel, so the next sql query builds
a fresh table.  This suite drives randomized insert/delete/replace
sequences through :meth:`QueryService.update` (the machinery
``tests/property/test_ordpath_mass.py`` stresses at the numbering layer)
and requires ``strategy=sql`` answers over the warm service to be
*byte-identical* to a cold service freshly loaded from the current
document — and to the warm tree-walk answer — after every batch.
"""

from __future__ import annotations

import random

import pytest

from repro.dataguide.build import build_dataguide
from repro.pbn.number import Pbn
from repro.service import QueryService
from repro.updates.durable import DurableStore
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.nodes import Element, Text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize

SEEDS = range(8)
BATCHES = 3
OPS_PER_BATCH = 3

_TAGS = ["a", "b", "c", "d"]
_WORDS = ["red", "green", "blue"]

QUERIES = [
    '{source}//a',
    '{source}//b/text()',
    '{source}//*[2]',
    '{source}//*[count(*) >= 1]',
    'count({source}//*)',
]


def _elements(document) -> list:
    """Non-root elements of the *current* tree, in document order."""
    found = []
    stack = [document]
    while stack:
        node = stack.pop()
        for child in reversed(getattr(node, "children", []) or []):
            stack.append(child)
            if isinstance(child, Element) and child.parent is not document:
                found.append(child)
    return found


def _texts(document) -> list:
    return [
        child
        for element in _elements(document)
        for child in element.children
        if isinstance(child, Text)
    ]


def _random_op(rng: random.Random, document):
    """One applicable random update against the current tree."""
    elements = _elements(document)
    texts = _texts(document)
    roll = rng.random()
    if roll < 0.3 and len(elements) > 4:
        return DeleteSubtree(target=Pbn.parse(str(rng.choice(elements).pbn)))
    if roll < 0.55 and texts:
        return ReplaceText(
            target=Pbn.parse(str(rng.choice(texts).pbn)),
            text=rng.choice(_WORDS),
        )
    tag = rng.choice(_TAGS)
    parent = rng.choice(elements) if elements else document.children[0]
    return InsertSubtree(
        parent=Pbn.parse(str(parent.pbn)),
        fragment=f"<{tag}>{rng.choice(_WORDS)}</{tag}>",
    )


def _payload(service, query: str, mode=None):
    result = service.execute(query, mode=mode)
    return (result.to_xml(), result.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_sql_matches_cold_rebuild_after_random_updates(seed):
    rng = random.Random(seed)
    service = QueryService(pool_size=2)
    uri = f"doc{seed}.xml"
    service.load(uri, random_document(seed, max_depth=4, max_children=3))

    # Warm every pooled engine's accel so the updates have something
    # to invalidate.
    for _ in range(2):
        service.execute(f'doc("{uri}")//a', mode="sql")

    for batch in range(BATCHES):
        for _ in range(OPS_PER_BATCH):
            op = _random_op(rng, service.store(uri).document)
            service.update(uri, op)

        # A cold service loaded from the current serialized document is
        # the rebuild baseline.
        cold = QueryService(pool_size=1)
        cold.load(uri, parse_document(
            serialize(service.store(uri).document), uri
        ))
        for template in QUERIES:
            query = template.replace("{source}", f'doc("{uri}")')
            context = f"seed={seed} batch={batch} query={query!r}"
            warm_sql = _payload(service, query, mode="sql")
            assert warm_sql == _payload(cold, query, mode="sql"), (
                f"warm sql != cold sql: {context}"
            )
            assert warm_sql == _payload(service, query, mode="tree"), (
                f"warm sql != warm tree: {context}"
            )

    # The virtual accel invalidates the same way: revalidation hands the
    # engines fresh vdoc objects, which miss the cache.
    document = service.store(uri).document
    spec = random_spec(build_dataguide(document), seed, max_roots=1,
                       max_children=2, max_depth=2)
    source = f'virtualDoc("{uri}", "{spec}")'
    cold = QueryService(pool_size=1)
    cold.load(uri, parse_document(serialize(document), uri))
    for query in (f"{source}//*", f"count({source}//*)"):
        assert _payload(service, query, mode="sql") == _payload(
            cold, query, mode="sql"
        ), f"seed={seed} query={query!r}"
        assert _payload(service, query, mode="sql") == _payload(
            service, query
        ), f"seed={seed} query={query!r}"

    # Every published version rebuilt its accel table on first sql touch.
    assert service.metrics.counter("sql.accel.builds") > BATCHES


def test_durable_update_path_invalidates_the_accel(tmp_path):
    directory = str(tmp_path / "store")
    DurableStore.create(
        directory, parse_document("<data><v>old</v></data>", "d.xml")
    ).close()
    service = QueryService(pool_size=2)
    durable = service.open_durable(directory)
    assert service.execute(
        'doc("d.xml")//v/text()', mode="sql"
    ).values() == ["old"]
    service.update("d.xml", ReplaceText(target=Pbn.parse("1.1.1"), text="new"))
    # The stale accel must not answer for the new version.
    assert service.execute(
        'doc("d.xml")//v/text()', mode="sql"
    ).values() == ["new"]
    assert durable.seq == 1
    durable.close()
