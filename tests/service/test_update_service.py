"""The service write path: snapshot isolation, view revalidation, pool safety."""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueryEvaluationError, ReproError, StorageError
from repro.pbn.number import Pbn
from repro.service import QueryService
from repro.updates.durable import DurableStore
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.xmlmodel.parser import parse_document


@pytest.fixture
def service():
    service = QueryService(pool_size=3)
    service.load("book.xml", books_document(8, seed=1))
    return service


def test_update_publishes_new_version(service):
    result = service.update(
        "book.xml",
        InsertSubtree(parent=Pbn.parse("1"), fragment="<memo><note>hi</note></memo>"),
    )
    assert service.store("book.xml") is result.store
    assert service.execute('count(doc("book.xml")//memo)').values() == ["1"]
    assert service.metrics.counter("service.updates_applied") == 1


def test_aborted_update_changes_nothing(service):
    before = service.store("book.xml")
    with pytest.raises(ReproError):
        service.update("book.xml", DeleteSubtree(target=Pbn.parse("9.9")))
    assert service.store("book.xml") is before
    assert service.metrics.counter("service.updates_aborted") == 1
    assert service.metrics.counter("service.updates_applied") == 0


def test_update_unknown_uri(service):
    with pytest.raises(QueryEvaluationError):
        service.update("nope.xml", DeleteSubtree(target=Pbn.parse("1.1")))


def test_untouched_view_is_retained_touched_view_is_evicted(service):
    service.warm("book.xml", "title { author }")
    built = service.metrics.counter("engine.views_built")
    extant = set(service.store("book.xml")._node_by_key)

    # memo types are unrelated to title/author: the view must survive.
    service.update(
        "book.xml", InsertSubtree(parent=Pbn.parse("1"), fragment="<memo>x</memo>")
    )
    assert service.execute(
        'count(virtualDoc("book.xml", "title { author }")//title)'
    ).values() == ["8"]
    assert service.metrics.counter("engine.views_built") == built
    assert service.metrics.counter("cache.view.update_evictions") == 0

    # inserting a title touches a referenced type: evict and rebuild.
    service.update(
        "book.xml",
        InsertSubtree(parent=Pbn.parse("1.1"), fragment="<title>Extra</title>"),
    )
    assert service.metrics.counter("cache.view.update_evictions") == 1
    assert service.execute(
        'count(virtualDoc("book.xml", "title { author }")//title)'
    ).values() == ["9"]
    assert service.metrics.counter("engine.views_built") == built + 1
    # Neither insert renumbered a node that was already there.
    assert extant < set(service.store("book.xml")._node_by_key)


def test_ancestor_touch_evicts_descendant_view(service):
    """A touched path *above* a referenced type also invalidates: new
    subtree instances can carry instances of the view's types."""
    service.warm("book.xml", "title { author }")
    service.update(
        "book.xml",
        InsertSubtree(
            parent=Pbn.parse("1"),
            fragment="<book><title>New</title><author>N</author></book>",
        ),
    )
    assert service.metrics.counter("cache.view.update_evictions") == 1
    assert service.execute(
        'count(virtualDoc("book.xml", "title { author }")//title)'
    ).values() == ["9"]


def test_reload_still_blanket_evicts(service):
    service.warm("book.xml", "title { author }")
    assert len(service.view_cache) == 1
    service.load("book.xml", books_document(3, seed=2))
    assert len(service.view_cache) == 0
    assert service.execute(
        'count(virtualDoc("book.xml", "title { author }")//title)'
    ).values() == ["3"]


def test_failing_queries_do_not_leak_engines():
    """Regression: an engine checked out for a failing query must return
    to the pool — otherwise pool_size failures deadlock the service."""
    service = QueryService(pool_size=2)
    service.load("book.xml", books_document(3, seed=1))
    for _ in range(5):  # > pool_size failures of each shape
        with pytest.raises(ReproError):
            service.execute('doc("missing.xml")//x')
        with pytest.raises(ReproError):
            service.warm("book.xml", "no_such_label { x }")
    done = []

    def probe():
        done.append(service.execute('count(doc("book.xml")//book)').values())

    thread = threading.Thread(target=probe, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert done == [["3"]]


def test_concurrent_queries_never_see_a_mixed_snapshot():
    """Each inserted pair satisfies x == y, so in every published version
    count(//x) == count(//y).  A query that mixed two versions mid-flight
    could observe a difference; it must not."""
    service = QueryService(pool_size=4)
    service.load("pairs.xml", parse_document("<data><seed/></data>", "pairs.xml"))
    mismatches: list[str] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                values = service.execute(
                    'count(doc("pairs.xml")//x) - count(doc("pairs.xml")//y)'
                ).values()
                if values != ["0"]:
                    mismatches.append(values[0])
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for k in range(25):
            service.update(
                "pairs.xml",
                InsertSubtree(
                    parent=Pbn.parse("1"),
                    fragment=f"<pair><x>{k}</x><y>{k}</y></pair>",
                ),
            )
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
    assert not errors
    assert not mismatches
    assert service.execute('count(doc("pairs.xml")//pair)').values() == ["25"]


def test_a_version_published_while_busy_never_overwrites_a_later_one():
    """An engine busy during update 1 and idle at update 2 must answer
    from version 2 at its next checkout, never from the version 1
    published while it was busy — the race behind
    ``test_concurrent_queries_never_see_a_mixed_snapshot``'s rare final
    count short of 25."""
    service = QueryService(pool_size=1)
    service.load("pairs.xml", parse_document("<data/>", "pairs.xml"))
    insert = InsertSubtree(parent=Pbn.parse("1"), fragment="<pair/>")
    with service._engine():
        service.update("pairs.xml", insert)
    service.update("pairs.xml", insert)
    assert service.execute('count(doc("pairs.xml")//pair)').values() == ["2"]


def test_open_durable_and_update_through_service(tmp_path):
    directory = str(tmp_path / "store")
    DurableStore.create(
        directory, parse_document("<data><v>old</v></data>", "d.xml")
    ).close()
    service = QueryService(pool_size=2)
    durable = service.open_durable(directory)
    assert service.execute('doc("d.xml")//v/text()').values() == ["old"]
    service.update("d.xml", ReplaceText(target=Pbn.parse("1.1.1"), text="new"))
    assert service.execute('doc("d.xml")//v/text()').values() == ["new"]
    assert durable.seq == 1
    histogram = service.metrics.histogram("service.wal_fsync_seconds")
    assert histogram is not None and histogram.count == 1
    assert service.checkpoint("d.xml") > 0
    assert durable.wal_size == 0
    snapshot = service.snapshot()
    assert snapshot["durable"]["d.xml"]["seq"] == 1
    durable.close()

    # The published state survives a fresh open (crash durability).
    other = QueryService(pool_size=1)
    reopened = other.open_durable(directory)
    assert other.execute('doc("d.xml")//v/text()').values() == ["new"]
    reopened.close()


def test_checkpoint_requires_durable_uri(service):
    with pytest.raises(StorageError):
        service.checkpoint("book.xml")
