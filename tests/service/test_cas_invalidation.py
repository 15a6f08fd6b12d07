"""Copy-on-write invalidation of the content-and-structure index.

Mirror of ``test_sql_invalidation.py`` for the CAS columns: after
randomized insert/delete/replace batches through
:meth:`QueryService.update`, value-predicate answers over the *warm*
service (whose stores carry derived CAS indexes) must be byte-identical
to a cold service freshly loaded from the current document — and to the
warm scalar answer with the batch kernels disabled.

The CAS has one invalidation subtlety the structural type index does
not: a text replace changes every *ancestor* element's string value even
though no posting list moves, so the derived CAS must drop strictly more
types than the derived type index rebuilds.  The identity test pins the
copy-on-write boundary on both sides — untouched value surfaces survive
by object identity, value-touched ones do not.
"""

from __future__ import annotations

import random

import pytest

from repro.pbn.number import Pbn
from repro.query.eval import Evaluator
from repro.service import QueryService
from repro.updates.durable import DurableStore
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.workloads.treegen import random_document
from repro.xmlmodel.nodes import Element, Text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize

SEEDS = range(6)
BATCHES = 3
OPS_PER_BATCH = 3

_TAGS = ["a", "b", "c", "d"]
_WORDS = ["red", "green", "blue"]

#: Value-predicate queries — every one CAS-compilable, covering the self /
#: child / attribute targets and both coercion regimes.
QUERIES = [
    '{source}//a[. = "red"]',
    '{source}//b[. >= "green"]/text()',
    '{source}//*[@id < 500]/@id',
    '{source}//*[. != "blue"]',
    '{source}//*[a > "b"]',
    'count({source}//*[@id >= 0])',
]


def _elements(document) -> list:
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


def _payload(service, query: str):
    result = service.execute(query, mode="indexed")
    return (result.to_xml(), result.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_cas_matches_cold_rebuild_after_random_updates(seed, monkeypatch):
    rng = random.Random(seed)
    service = QueryService(pool_size=2)
    uri = f"doc{seed}.xml"
    service.load(
        uri,
        random_document(seed, max_depth=4, max_children=3,
                        attribute_probability=0.4),
    )

    # Warm the CAS columns so the updates have something to invalidate
    # (the derived index only exists when the base store built one).
    for template in QUERIES:
        service.execute(template.replace("{source}", f'doc("{uri}")'),
                        mode="indexed")
    assert service.store(uri)._cas_index is not None

    for batch in range(BATCHES):
        for _ in range(OPS_PER_BATCH):
            op = _random_op(rng, service.store(uri).document)
            service.update(uri, op)
        assert service.store(uri)._cas_index is not None, (
            "derived stores must inherit the CAS copy-on-write"
        )

        cold = QueryService(pool_size=1)
        cold.load(uri, parse_document(
            serialize(service.store(uri).document), uri
        ))
        for template in QUERIES:
            query = template.replace("{source}", f'doc("{uri}")')
            context = f"seed={seed} batch={batch} query={query!r}"
            warm = _payload(service, query)
            assert warm == _payload(cold, query), (
                f"warm cas != cold rebuild: {context}"
            )
            monkeypatch.setattr(Evaluator, "use_batch_kernels", False)
            scalar = _payload(service, query)
            monkeypatch.setattr(Evaluator, "use_batch_kernels", True)
            assert warm == scalar, f"warm cas != warm scalar: {context}"


def test_value_touched_columns_rebuild_untouched_survive():
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(8, seed=2))
    store = service.store("book.xml")
    guide = store.guide
    title_id = store.type_id(guide.lookup_path(("data", "book", "title")))
    book_id = store.type_id(guide.lookup_path(("data", "book")))

    cas = store.cas_index
    title_columns = cas.columns(title_id)
    book_columns = cas.columns(book_id)
    assert title_columns is not None and book_columns is not None

    # Replace the text of one author name: no posting list moves, but the
    # name/author/book/data string values all change.
    target = service.execute('doc("book.xml")//name/text()').items[0]
    service.update(
        "book.xml",
        ReplaceText(target=Pbn.parse(str(target.pbn)), text="Fresh"),
    )
    new_store = service.store("book.xml")
    new_cas = new_store._cas_index
    assert new_cas is not None and new_cas is not cas

    # Titles are value-untouched: their columns ride along by identity.
    assert new_cas.columns(title_id) is title_columns
    # The book's structural column survives (postings unchanged) ...
    assert new_store.type_index.column(book_id) is store.type_index.column(
        book_id
    )
    # ... but its CAS columns must rebuild: the value changed under it.
    rebuilt = new_cas.columns(book_id)
    assert rebuilt is not book_columns
    assert len(service.execute('doc("book.xml")//name[. = "Fresh"]')) == 1
    assert len(
        service.execute('doc("book.xml")//author[name = "Fresh"]')
    ) == 1


def test_durable_update_and_wal_recovery_keep_cas_fresh(tmp_path):
    directory = str(tmp_path / "store")
    DurableStore.create(
        directory, parse_document("<data><v>5</v><v>12</v></data>", "d.xml")
    ).close()
    service = QueryService(pool_size=2)
    durable = service.open_durable(directory)
    assert service.execute('doc("d.xml")//v[. < 10]/text()').values() == ["5"]
    service.update("d.xml", ReplaceText(target=Pbn.parse("1.1.1"), text="3"))
    # The stale CAS columns must not answer for the new version.
    assert service.execute('doc("d.xml")//v[. < 10]/text()').values() == ["3"]
    assert durable.seq == 1
    durable.close()

    # WAL recovery: a fresh service replays the log into a new store; its
    # CAS builds lazily against the recovered state.
    recovered = QueryService(pool_size=1)
    reopened = recovered.open_durable(directory)
    assert recovered.execute(
        'doc("d.xml")//v[. < 10]/text()'
    ).values() == ["3"]
    assert recovered.execute('doc("d.xml")//v[. >= 10]').values() == ["12"]
    reopened.close()


def test_views_borrow_store_columns_for_intact_vtypes_across_updates():
    """A view evicted by an update comes back holding the *store's*
    ``CasColumns`` object for every intact vtype the update did not
    touch; only a touched type, or a vtype the view prunes (its virtual
    values differ from the stored ones), gets columns built afresh."""
    from repro.core.values import is_intact
    from repro.storage.cas_index import virtual_cas_columns

    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(8, seed=2))
    spec = "title { author { name } }"
    query = f'virtualDoc("book.xml", "{spec}")//title[author/name = "Codd"]/text()'
    by_value = f'virtualDoc("book.xml", "{spec}")//title[author = "Codd"]'

    def columns_of(vdoc):
        title = vdoc.vguide.roots[0]
        author = next(v for v in title.children if v.name == "author")
        name = next(v for v in author.children if v.name == "name")
        assert is_intact(vdoc, name) and is_intact(vdoc, author)
        assert not is_intact(vdoc, title)  # it owns authors it never had
        return {
            vtype.name: virtual_cas_columns(vdoc, vtype)
            for vtype in (title, author, name)
        }

    def stored(store, vtype_name):
        path = {
            "title": ("data", "book", "title"),
            "author": ("data", "book", "author"),
            "name": ("data", "book", "author", "name"),
        }[vtype_name]
        return store.cas_index.columns(store.type_id(store.guide.lookup_path(path)))

    before = service.execute(query).values()
    service.execute(by_value)
    store = service.store("book.xml")
    first = columns_of(service.resolve_view("book.xml", spec))
    assert first["name"] is stored(store, "name")
    assert first["author"] is stored(store, "author")
    assert first["title"] is not stored(store, "title")

    # A title's text changes: names and authors are untouched.
    target = service.execute('doc("book.xml")//title/text()').items[0]
    service.update(
        "book.xml", ReplaceText(target=Pbn.parse(str(target.pbn)), text="Fresh")
    )
    new_store = service.store("book.xml")
    rebuilt_view = service.resolve_view("book.xml", spec)
    second = columns_of(rebuilt_view)
    assert second["name"] is first["name"] is stored(new_store, "name")
    assert second["author"] is first["author"]
    assert second["title"] is not first["title"]  # pruned vtype: per view
    assert service.execute(query).values() == [
        "Fresh" if value == target.value else value for value in before
    ]

    # A name changes: the touched types rebuild, once, in the store.
    name_text = service.execute('doc("book.xml")//name/text()').items[0]
    service.update(
        "book.xml", ReplaceText(target=Pbn.parse(str(name_text.pbn)), text="Renamed")
    )
    third = columns_of(service.resolve_view("book.xml", spec))
    assert third["name"] is not second["name"]
    assert third["name"] is stored(service.store("book.xml"), "name")
    assert len(service.execute(query.replace("Codd", "Renamed"))) == 1
