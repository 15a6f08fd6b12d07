"""The route contract — what every endpoint answers over real HTTP — held
over a 1-shard and a 2-shard collection behind the one transport."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.shard import ShardedService
from repro.workloads.books import books_document
from tests.conftest import Served, served


# One shard is an unpartitioned collection: its arm keeps the id "unsharded".
@pytest.fixture(params=[1, 2], ids=["unsharded", "2-shard"])
def server(request):
    service = ShardedService(shards=request.param, pool_size=2)
    service.load("book.xml", books_document(10, seed=5))
    with served(service) as handle:
        yield handle
    service.close()


def _get(server: Served, path: str, accept: str | None = None):
    request = urllib.request.Request(server.url(path))
    if accept is not None:
        request.add_header("Accept", accept)
    return urllib.request.urlopen(request, timeout=10)


def _post(server: Served, path: str, body: str, method: str = "POST"):
    request = urllib.request.Request(
        server.url(path), data=body.encode("utf-8"), method=method
    )
    return urllib.request.urlopen(request, timeout=10)


# -- /query -------------------------------------------------------------------


def test_query_returns_xml(server):
    with _post(server, "/query", 'doc("book.xml")//title') as response:
        assert response.status == 200
        assert "application/xml" in response.headers["Content-Type"]
        body = response.read().decode("utf-8")
    assert body.startswith("<title>")


def test_query_values_mode(server):
    with _post(server, "/query?values=1", 'count(doc("book.xml")//book)') as response:
        assert response.read().decode("utf-8") == "10"
        assert "text/plain" in response.headers["Content-Type"]


def test_query_tree_mode(server):
    with _post(server, "/query?mode=tree&values=1", 'count(doc("book.xml")//book)') as r:
        assert r.read().decode("utf-8") == "10"


def test_bad_query_is_400_with_message(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/query", "((((")
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    assert "error" in payload


def test_empty_body_is_400(server):
    for path in ("/query", "/explain"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, path, "   ")
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read()) == {"error": "empty query body"}


def test_unknown_paths_are_404_and_other_methods_405(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/nope", "x")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/query", "x", method="PUT")
    assert excinfo.value.code == 405


def test_concurrent_http_queries(server):
    """A handful of parallel clients all get complete, correct answers."""
    answers: list[str] = []
    errors: list[Exception] = []

    def client():
        try:
            with _post(server, "/query?values=1", 'count(doc("book.xml")//book)') as r:
                answers.append(r.read().decode("utf-8"))
        except Exception as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert answers == ["10"] * 8


def test_explain_answers_the_routed_shards_report(server):
    with _post(server, "/explain", 'doc("book.xml")//title') as response:
        assert response.status == 200
        report = json.loads(response.read().decode("utf-8"))
    assert sorted(report) == ["operators", "plan", "profile", "rendered", "summary"]
    assert report["operators"] == ["step descendant::title"]
    assert report["summary"]["items"] == 10
    assert report["summary"]["trace_id"]


# -- /update ------------------------------------------------------------------


def test_update_round_trip(server):
    payload = {"op": "insert", "parent": "1", "fragment": "<memo>hi</memo>"}
    with _post(server, "/update", json.dumps(payload)) as response:
        report = json.loads(response.read().decode("utf-8"))
    assert sorted(report) == ["minted", "removed", "touched", "uri", "version"]
    assert report["uri"] == "book.xml"
    assert report["minted"] == ["1.11", "1.11.1"]
    assert report["removed"] == []
    assert "data.memo" in report["touched"]
    with _post(server, "/query?values=1", 'count(doc("book.xml")//memo)') as response:
        assert response.read().decode("utf-8") == "1"


def test_update_rejects_bad_payloads(server):
    for path, body in (
        ("/update", "not json"),
        ("/update", json.dumps(["not", "an", "object"])),
        ("/update", json.dumps({"op": "delete", "target": "42"})),
        ("/update?uri=missing.xml", json.dumps({"op": "delete", "target": "1.1"})),
    ):
        with pytest.raises(urllib.error.HTTPError) as outcome:
            _post(server, path, body)
        assert outcome.value.code == 400, (path, body)
        assert "error" in json.loads(outcome.value.read())


# -- /metrics, /healthz -------------------------------------------------------


def test_metrics_default_is_json(server):
    _post(server, "/query", 'doc("book.xml")//title').read()
    with _get(server, "/metrics") as response:
        assert "application/json" in response.headers["Content-Type"]
        payload = json.loads(response.read().decode("utf-8"))
    assert payload["counters"]["service.queries"] >= 1
    assert "storage" in payload and "caches" in payload


def test_metrics_negotiates_prometheus_text(server):
    server.service.execute('doc("book.xml")//title')
    for path, accept in (
        ("/metrics", "text/plain"),
        ("/metrics", "application/openmetrics-text"),
        ("/metrics?format=prometheus", None),
    ):
        with _get(server, path, accept=accept) as response:
            content_type = response.headers["Content-Type"]
            assert "text/plain; version=0.0.4" in content_type
            body = response.read().decode("utf-8")
        assert "# TYPE repro_service_queries counter" in body
        assert "repro_service_queries 1" in body
        assert "repro_engine_query_seconds_count" in body
        assert "repro_storage_index_range_scans" in body
        assert "repro_cache_plan_entries" in body


def test_strategy_labels_reach_the_exposition(server):
    server.service.execute(
        'virtualDoc("book.xml", "title { author { name } }")//title'
    )
    server.service.execute('doc("book.xml")//title')
    with _get(server, "/metrics", accept="text/plain") as response:
        body = response.read().decode("utf-8")
    assert 'repro_engine_queries{strategy="virtual"} 1' in body
    assert 'repro_engine_queries{strategy="indexed"} 1' in body


def test_healthz(server):
    with _get(server, "/healthz") as response:
        payload = json.loads(response.read().decode("utf-8"))
    topology = payload.pop("shards", None)  # a sharded service adds its catalog
    assert payload == {"status": "ok", "documents": ["book.xml"]}
    assert (topology is not None) == isinstance(server.service, ShardedService)
