"""Queries spanning several documents and several virtual views at once."""

import pytest

from repro.query.engine import Engine
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document


@pytest.fixture
def engine():
    engine = Engine()
    engine.load("books.xml", books_document(10, seed=51))
    engine.load("dblp.xml", dblp_document(10, seed=52))
    return engine


def test_join_across_documents(engine):
    """A value join between two physical documents."""
    result = engine.execute(
        'for $a in distinct-values(doc("dblp.xml")//author/text()) '
        'where doc("books.xml")//name/text() = $a '
        "return $a"
    )
    assert len(result) >= 0  # shape only; below checks a concrete pair
    shared = set(engine.execute('doc("books.xml")//name/text()').values()) & set(
        engine.execute('doc("dblp.xml")//author/text()').values()
    )
    assert set(result.values()) == shared


def test_union_of_physical_and_virtual(engine):
    result = engine.execute(
        'doc("books.xml")//title | '
        'virtualDoc("books.xml", "title { author }")//title'
    )
    # Physical titles and virtual titles are different items (Node vs
    # VNode) over the same underlying elements.
    assert len(result) == 20


def test_two_virtual_views_same_document(engine):
    by_title = engine.execute(
        'count(virtualDoc("books.xml", "title { author }")//author)'
    )
    by_name = engine.execute(
        'count(virtualDoc("books.xml", "name { author }")//author)'
    )
    physical = engine.execute('count(doc("books.xml")//author)')
    assert by_title.items == physical.items
    assert by_name.items == physical.items


def test_virtual_views_over_two_documents(engine):
    result = engine.execute(
        'count(virtualDoc("books.xml", "title { author }")//title) + '
        'count(virtualDoc("dblp.xml", "dblp { article }")//article)'
    )
    titles = engine.execute('count(doc("books.xml")//title)').items[0]
    articles = engine.execute('count(doc("dblp.xml")//article)').items[0]
    assert result.items == [titles + articles]


def test_flwr_correlating_physical_and_virtual(engine):
    """Use the virtual view for grouping and the physical document for a
    value lookup in the same FLWR."""
    result = engine.execute(
        'for $t in virtualDoc("books.xml", "title { author { name } }")//title '
        'where count($t/author) >= 2 '
        "return string($t/text())"
    )
    for title_text in result.values():
        physical = engine.execute(
            f'count(doc("books.xml")//book[title = "{title_text}"]/author)'
        )
        assert physical.items[0] >= 2


def test_document_order_stable_across_containers(engine):
    result = engine.execute('(doc("books.xml")//title, doc("dblp.xml")//title)')
    names = [item.name for item in result]
    assert names == ["title"] * len(names)
    # Items group by document in load order once sorted by a set operator.
    union = engine.execute('doc("dblp.xml")//title | doc("books.xml")//title')
    assert len(union) == len(result)


def test_one_engine_holds_one_version_of_a_document():
    """Two versions of one document share every node an update did not
    touch, so an engine holding both under two uris would answer
    ``doc("a.xml")//x | doc("b.xml")//x`` as one document.  Attaching the
    second version under another uri is refused, naming both uris;
    attaching it under the same uri replaces the first."""
    from repro.errors import LineageError
    from repro.pbn.number import Pbn
    from repro.updates.mutations import apply_op
    from repro.updates.ops import ReplaceText

    engine = Engine()
    version = engine.load("a.xml", "<r><x>1</x><x>2</x></r>")
    following = apply_op(version, ReplaceText(Pbn(1, 2, 1), "3")).store
    with pytest.raises(LineageError) as refused:
        engine.attach("b.xml", following)
    assert (refused.value.uri, refused.value.attached_uri) == ("b.xml", "a.xml")
    assert "'b.xml'" in str(refused.value) and "'a.xml'" in str(refused.value)
    assert engine.uris() == ["a.xml"]
    engine.attach("a.xml", following)
    assert engine.execute('doc("a.xml")//x/text()').values() == ["1", "3"]
    # Another engine may hold the other version: one version per engine.
    other = Engine()
    other.attach("b.xml", version)
    assert other.execute('doc("b.xml")//x/text()').values() == ["1", "2"]
