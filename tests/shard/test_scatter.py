"""Scatter-gather behaviour: routing, merging, combiners, guards,
sharded EXPLAIN ANALYZE, and update routing."""

from __future__ import annotations

import pytest

from repro.errors import QueryEvaluationError
from repro.query.engine import Result
from repro.service import QueryService
from repro.shard import ShardedService, ShardError, ShardResult
from repro.shard.merge import ShardMergeError
from repro.shard.plan import referenced_sources
from repro.updates.ops import InsertSubtree, ReplaceText

DOCS = 8
SPEC = "title { chapter }"


def _xml(i: int) -> str:
    return (
        f"<book id='{i}'><title>T{i}</title>"
        f"<chapter><p>body {i}</p></chapter></book>"
    )


def _load(service) -> list[str]:
    uris = []
    for i in range(DOCS):
        uri = f"doc{i}.xml"
        service.load(uri, _xml(i))
        uris.append(uri)
    return uris


@pytest.fixture(scope="module")
def pair():
    sharded = ShardedService(shards=4, pool_size=1)
    single = ShardedService(shards=1, pool_size=1)
    uris = _load(sharded)
    _load(single)
    yield sharded, single, uris
    sharded.close()
    single.close()


def _union(uris, suffix="//title"):
    return " | ".join(f'doc("{u}"){suffix}' for u in uris)


def test_multiple_shards_used(pair):
    sharded, _, uris = pair
    assert len({sharded.catalog.shard_of(u) for u in uris}) > 1


def test_single_document_query_routes_without_scatter(pair):
    sharded, single, uris = pair
    result = sharded.execute(f'doc("{uris[0]}")//p/text()')
    assert isinstance(result, Result)  # the unsharded result type
    assert result.values() == ["body 0"]
    before = sharded.metrics.counter("shard.scatter_queries")
    sharded.execute(f'doc("{uris[3]}")//title')
    assert sharded.metrics.counter("shard.scatter_queries") == before


def test_a_query_text_is_analysed_once(monkeypatch):
    import repro.shard.service as shard_service

    analysed = []

    def counting(expr):
        analysed.append(expr)
        return referenced_sources(expr)

    monkeypatch.setattr(shard_service, "referenced_sources", counting)
    service = ShardedService(shards=4, pool_size=1)
    try:
        uris = _load(service)
        point = f'count(doc("{uris[0]}")//p)'
        for _ in range(5):
            assert service.execute(point).values() == ["1"]
        assert len(analysed) == 1
        # Each routed execution still counts as one routed read.
        assert service.metrics.counter("shard.routed_single") == 5
        for _ in range(3):
            assert service.execute(_union(uris)).values() == [f"T{i}" for i in range(DOCS)]
        assert len(analysed) == 2
    finally:
        service.close()


def test_the_per_text_cache_holds_under_concurrent_evictions():
    """More texts than the plan cache holds, routed and scattered from
    more threads than cores with a short switch interval: every answer
    stays right and the cache stays bounded."""
    import sys
    import threading

    service = ShardedService(shards=4, pool_size=2)
    uris = _load(service)
    # Padding makes distinct texts (cache keys) of one plan.
    count = service.plan_cache.capacity + 64
    texts = [
        (f'count(doc("{uris[i % DOCS]}")//p){" " * i}', ["1"])
        if i % 2
        else (f"count({_union(uris)}){' ' * i}", [str(DOCS)])
        for i in range(count)
    ]
    failures: list = []

    def run(offset: int) -> None:
        for text, expected in texts[offset:] + texts[:offset]:
            try:
                if service.execute(text).values() != expected:
                    failures.append(text)
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(count // 4 * n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert failures == []
    assert len(service.plan_cache) <= service.plan_cache.capacity
    assert service.metrics.counter("cache.plan.evictions") > 0


def test_a_text_respecializes_when_a_document_lands_off_its_hash_shard():
    service = ShardedService(shards=2, pool_size=1)
    try:
        service.load("a.xml", "<r><b>a</b></r>", shard=0)
        service.load("c.xml", "<r><b>c</b></r>", shard=1)
        late = next(f"x{i}.xml" for i in range(64) if service.catalog.place(f"x{i}.xml") == 1)
        query = f'doc("a.xml")//b | doc("c.xml")//b | doc("{late}")//b'
        with pytest.raises(QueryEvaluationError, match="no document loaded"):
            service.execute(query)  # specialized for the hash placement
        service.load(late, "<r><b>x</b></r>", shard=0)
        assert service.execute(query).values() == ["a", "c", "x"]
    finally:
        service.close()


def test_scatter_merges_in_document_order(pair):
    sharded, single, uris = pair
    result = sharded.execute(_union(uris))
    assert isinstance(result, ShardResult)
    assert len(result.shards) > 1
    assert result.values() == [f"T{i}" for i in range(DOCS)]
    assert result.to_xml() == single.execute(_union(uris)).to_xml()


def test_scatter_matches_unsharded_for_reversed_sources(pair):
    sharded, single, uris = pair
    query = f'doc("{uris[5]}")//title | doc("{uris[0]}")//title'
    assert sharded.execute(query).to_xml() == single.execute(query).to_xml()


def test_scatter_matches_on_text_and_wildcard(pair):
    sharded, single, uris = pair
    for suffix in ("//p/text()", "//*", "//chapter"):
        query = _union(uris, suffix)
        assert sharded.execute(query).to_xml() == single.execute(query).to_xml()


def test_count_combiner_distributes(pair):
    sharded, single, uris = pair
    query = f"count({_union(uris, '//*')})"
    assert sharded.execute(query).items == single.execute(query).items
    assert sharded.execute(query).items == [4 * DOCS]


def test_exists_combiner(pair):
    sharded, _, uris = pair
    assert sharded.execute(f"exists({_union(uris, '//p')})").items == [True]
    assert sharded.execute(f"exists({_union(uris, '//nope')})").items == [False]


def test_virtual_doc_scatter(pair):
    sharded, single, uris = pair
    query = " | ".join(
        f'virtualDoc("{u}", "{SPEC}")//chapter' for u in uris
    )
    assert sharded.execute(query).to_xml() == single.execute(query).to_xml()


def test_guarded_cross_shard_source_is_refused(pair):
    sharded, _, uris = pair
    with pytest.raises(ShardError, match="predicate or condition"):
        sharded.execute(
            f'doc("{uris[0]}")//p[count(doc("{uris[5]}")//p) > 0]'
        )


def test_dynamic_uri_is_refused(pair):
    sharded, _, uris = pair
    with pytest.raises(ShardError, match="computed uri"):
        sharded.execute(
            f'for $u in ("x") return doc($u)//p | doc("{uris[5]}")//p'
        )


def test_node_variables_are_refused_for_scatter(pair):
    sharded, single, uris = pair
    node = single.execute(f'doc("{uris[0]}")//p').items[0]
    with pytest.raises(ShardError, match="variables"):
        sharded.execute(_union(uris), variables={"n": [node]})


def test_constructed_results_cannot_merge(pair):
    sharded, _, uris = pair
    query = " | ".join(f'doc("{u}")//missing' for u in uris)
    # All-empty streams merge fine...
    assert len(sharded.execute(query)) == 0
    # ...but multi-shard constructed/atomic items do not.
    flwr = (
        "for $t in " + _union(uris) + " return <got>{$t/text()}</got>"
    )
    with pytest.raises(ShardMergeError, match="attributed"):
        sharded.execute(flwr)


def test_explain_carries_shard_attribute(pair):
    sharded, _, uris = pair
    report = sharded.explain(_union(uris))
    assert report["summary"]["fanout"] > 1
    assert set(report["shards"]) == {
        str(s) for s in sharded.catalog.shards_of(uris)
    }
    for shard, entry in report["shards"].items():
        assert f"shard={shard}" in report["rendered"]
        assert entry["profile"]["attrs"]["shard"] == int(shard)


def test_a_routed_explain_is_its_shards_report(pair):
    """A plan on one shard explains exactly as that shard does: the
    unsharded report's keys and operator rows, on one shard and routed
    across four."""
    sharded, single, uris = pair
    query = f'doc("{uris[3]}")//chapter/p'
    reference = QueryService(pool_size=1)
    reference.load(uris[3], _xml(3))
    expected = reference.explain(query)
    assert sorted(expected) == ["operators", "plan", "profile", "rendered", "summary"]
    for service in (single, sharded):
        report = service.explain(query)
        assert sorted(report) == sorted(expected)
        assert sorted(report["summary"]) == sorted(expected["summary"])
        assert report["operators"] == expected["operators"]
        assert report["plan"] == expected["plan"]


def test_explain_counts_once_per_call(pair):
    sharded, _, uris = pair
    for query in (f'doc("{uris[0]}")//title', _union(uris)):
        before = sharded.metrics.counter("service.explains")
        sharded.explain(query)
        assert sharded.metrics.counter("service.explains") == before + 1


def test_a_computed_uri_explains_with_the_error_execute_raises(pair):
    sharded, single, _ = pair
    query = 'doc(concat("doc", "0.xml"))//title'
    with pytest.raises(ShardError) as executed:
        sharded.execute(query)
    with pytest.raises(ShardError) as explained:
        sharded.explain(query)
    assert str(explained.value) == str(executed.value)
    # One shard routes it anyway, and explains what it executes.
    assert single.explain(query)["summary"]["items"] == len(single.execute(query))


def test_update_routes_to_owning_shard(pair):
    sharded, single, uris = pair
    target = uris[3]
    chapter = single.execute(f'doc("{target}")/book/chapter').items[0]
    op = InsertSubtree(parent=chapter.pbn, fragment="<note>routed</note>")
    sharded.update(target, op)
    single.update(target, op)
    query = _union(uris, "//note")
    assert sharded.execute(query).to_xml() == single.execute(query).to_xml()
    assert sharded.execute(query).values() == ["routed"]


def test_snapshot_reports_topology_and_scatter_metrics(pair):
    sharded, _, uris = pair
    snapshot = sharded.snapshot()
    assert snapshot["shards"]["documents"] == DOCS
    assert snapshot["counters"]["shard.scatter_queries"] >= 1
    assert "shard.scatter_seconds" in snapshot["histograms"]


def test_batch_mixes_routed_and_scattered(pair):
    sharded, single, uris = pair
    queries = [f'doc("{uris[0]}")//title', _union(uris), "count(" + _union(uris) + ")"]
    outcome = sharded.batch(queries)
    expected = [single.execute(q) for q in queries]
    assert [o.values() for o in outcome.outcomes] == [
        e.values() for e in expected
    ]


@pytest.mark.parametrize("source", ["doc", "virtualDoc"])
def test_scatter_racing_an_update_answers_its_snapshot(source):
    """A shard that evaluated on version n while an update publishes n + 1
    before the gather: the merge attributes the shard's items to the
    containers its own evaluation resolved, so the answer is the snapshot
    each shard read — the racing update neither fails the scatter nor
    leaks into it."""
    service = ShardedService(shards=2, placement={"a.xml": 0, "b.xml": 1})
    try:
        service.load("a.xml", _xml(0))
        service.load("b.xml", _xml(1))
        title = service.execute('doc("a.xml")/book/title/text()').items[0]
        shard = service.services[0]
        evaluate = shard.execute

        def evaluate_then_update(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            service.update("a.xml", ReplaceText(target=title.pbn, text="NEW"))
            return result

        shard.execute = evaluate_then_update
        if source == "doc":
            query = _union(["a.xml", "b.xml"], "//title/text()")
        else:
            query = " | ".join(
                f'virtualDoc("{uri}", "{SPEC}")//title/text()' for uri in ("a.xml", "b.xml")
            )
        result = service.execute(query)
        assert isinstance(result, ShardResult)
        assert result.values() == ["T0", "T1"]
        del shard.execute
        assert service.execute(query).values() == ["NEW", "T1"]
    finally:
        service.close()


def test_explicit_placement_and_load_override():
    service = ShardedService(shards=2, placement={"a.xml": 1})
    try:
        service.load("a.xml", "<r/>")
        service.load("b.xml", "<r/>", shard=0)
        assert service.catalog.shard_of("a.xml") == 1
        assert service.catalog.shard_of("b.xml") == 0
    finally:
        service.close()


def test_a_load_that_fails_leaves_no_phantom_document():
    from repro.errors import XmlParseError

    service = ShardedService(shards=2, placement={"a.xml": 1})
    try:
        with pytest.raises(XmlParseError):
            service.load("b.xml", "<r><x>1</x>")
        assert service.uris() == []
        assert "b.xml" not in service.catalog
        assert [service.metrics.counter("shard.documents", {"shard": s}) for s in "01"] == [0, 0]
        service.load("a.xml", "<r/>")
        with pytest.raises(XmlParseError):
            service.load("a.xml", "<r>", shard=0)  # a failed reload is no move
        service.load("b.xml", "<r/>")
        service.load("a.xml", "<s/>", shard=0)  # a reload keeps its shard
        assert service.uris() == ["a.xml", "b.xml"]
        assert service.catalog.shard_of("a.xml") == 1
        assert service.services[1].uris() == ["a.xml"]
        assert service.catalog.summary()["documents"] == 2
        assert [service.metrics.counter("shard.documents", {"shard": s}) for s in "01"] == [1, 2]
    finally:
        service.close()


# -- the run-wise gather --------------------------------------------------------


def test_stream_runs_attribute_each_container_once_and_merge_by_ordinal():
    from repro.query.engine import Engine
    from repro.shard.merge import merge_runs, source_ordinals, stream_runs

    engine = Engine()
    for i in range(4):
        engine.load(f"doc{i}.xml", _xml(i))
    view = f'virtualDoc("doc1.xml", "{SPEC}")//title'
    left = engine.execute(f'doc("doc0.xml")//p | {view}')
    right = engine.execute('doc("doc2.xml")//* | doc("doc3.xml")//title')
    keys = [("doc", "doc0.xml", None), ("virtualDoc", "doc1.xml", SPEC),
            ("doc", "doc2.xml", None), ("doc", "doc3.xml", None)]
    sources = [(key, ordinal) for ordinal, key in enumerate(keys)]
    left_runs = stream_runs(left.items, source_ordinals(left.sources, sources))
    right_runs = stream_runs(right.items, source_ordinals(right.sources, sources))
    assert [(ordinal, len(run)) for ordinal, run in left_runs] == [(0, 1), (1, 1)]
    assert [(ordinal, len(run)) for ordinal, run in right_runs] == [(2, 4), (3, 1)]
    assert merge_runs([right_runs, left_runs]) == left.items + right.items


def test_stream_runs_keep_every_check():
    from repro.query.engine import Engine
    from repro.shard.merge import source_ordinals, stream_runs

    engine = Engine()
    for i in range(2):
        engine.load(f"doc{i}.xml", _xml(i))
    keys = [("doc", "doc0.xml", None), ("doc", "doc1.xml", None)]
    sources = [(key, ordinal) for ordinal, key in enumerate(keys)]
    result = engine.execute('doc("doc0.xml")//* | doc("doc1.xml")//*')
    ordinals = source_ordinals(result.sources, sources)
    items = result.items
    first = [item for item in items if item.pbn is not None][: len(items) // 2]
    second = items[len(first):]
    assert len(stream_runs(items, ordinals)) == 2
    with pytest.raises(ShardMergeError, match="attributed"):
        stream_runs(items + [1], ordinals)
    with pytest.raises(ShardMergeError, match="re-enters"):
        stream_runs(second + first, ordinals)
    with pytest.raises(ShardMergeError, match="PBN"):
        stream_runs(first[::-1], ordinals)
