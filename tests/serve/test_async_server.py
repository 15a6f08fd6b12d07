"""End-to-end tests for the HTTP server: keep-alive, read/write
splitting, shedding (429), budget rejection (422), drain, and structured
answers to malformed framing.  (What each route answers is
``test_routes.py``.)"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import threading

import pytest

from repro.query.budget import CostBudget
from repro.serve.admission import AdmissionController
from repro.serve.app import ServingApp, build_serving
from repro.serve.http import _MAX_BODY, AsyncHTTPServer
from repro.shard import ShardedService
from tests.conftest import served

DOC = "<a><b x='1'>t1</b><b x='2'>t2</b><c>z</c></a>"


class GatedService(ShardedService):
    """A one-shard collection whose shard's queries block on ``gate`` —
    deterministic slow requests.  No engine is ever free for an inline
    read (``wait=False`` answers ``None``), so every read takes the
    ``busy`` route to the worker pool and waits on the gate there, never
    on the event loop."""

    def __init__(self, pool_size: int) -> None:
        super().__init__(shards=1, pool_size=pool_size)
        self.gate = threading.Event()
        shard = self.services[0]
        execute = shard.execute

        def gated(*args, wait=True, **kwargs):
            if not wait:
                return None
            assert self.gate.wait(10), "test gate never opened"
            return execute(*args, **kwargs)

        shard.execute = gated


async def request(port, method, path, body=b"", keep_alive=False, reader_writer=None):
    """One raw HTTP/1.1 exchange; returns (status, headers, body[, conn])."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reader_writer
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length", 0)))
    if keep_alive:
        return status, headers, payload.decode(), (reader, writer)
    writer.close()
    return status, headers, payload.decode()


def _serve(app):
    server = AsyncHTTPServer(app)
    return server


def test_query_update_and_replication_roundtrip():
    service = ShardedService(shards=1, pool_size=2)
    service.load("doc.xml", DOC)
    app = build_serving(service, replicas=2, max_inflight=4)

    async def main():
        server = _serve(app)
        await server.start()
        port = server.port
        status, _, body = await request(
            port, "POST", "/query?values=1", b"count(doc('doc.xml')//b)"
        )
        assert (status, body) == (200, "2")
        status, _, body = await request(
            port,
            "POST",
            "/update",
            json.dumps(
                {"op": "insert", "parent": "1", "fragment": "<d/>"}
            ).encode(),
        )
        assert status == 200
        assert json.loads(body)["minted"] == ["1.4"]
        # The write shipped; replica reads observe it (read/write split).
        # Two reads round-robin both replicas, catching each up.
        for _ in range(2):
            status, _, body = await request(
                port, "POST", "/query?values=1", b"count(doc('doc.xml')/a/*)"
            )
            assert (status, body) == (200, "4")
        status, _, body = await request(port, "GET", "/replication")
        report = json.loads(body)
        assert status == 200
        assert report["replica_sets"][0]["shipped"] == 1
        assert report["max_lag"] == 0
        status, _, body = await request(port, "GET", "/healthz")
        assert json.loads(body)["replicas"] == 2
        await server.drain(2.0)
        assert service.replica_sets[0].verify_identical("doc.xml")

    asyncio.run(main())


def test_keep_alive_reuses_connection():
    service = ShardedService(shards=1, pool_size=2)
    service.load("doc.xml", DOC)
    app = ServingApp(service)

    async def main():
        server = _serve(app)
        await server.start()
        status, _, body, conn = await request(
            server.port, "GET", "/healthz", keep_alive=True
        )
        assert status == 200
        status, _, body, conn = await request(
            server.port,
            "POST",
            "/query?values=1",
            b"count(doc('doc.xml')//b)",
            keep_alive=True,
            reader_writer=conn,
        )
        assert (status, body) == (200, "2")
        conn[1].close()
        await server.drain(2.0)

    asyncio.run(main())


def test_overload_sheds_429_with_retry_after():
    service = GatedService(pool_size=2)
    service.load("doc.xml", DOC)
    admission = AdmissionController(
        max_inflight=1, queue_limit=0, queue_timeout_s=0.05
    )
    app = ServingApp(service, admission=admission, workers=2)

    async def main():
        server = _serve(app)
        await server.start()
        port = server.port
        slow = asyncio.ensure_future(
            request(port, "POST", "/query?values=1", b"count(doc('doc.xml')//b)")
        )
        # Wait until the slow request holds the only slot.
        for _ in range(200):
            if admission.inflight == 1:
                break
            await asyncio.sleep(0.005)
        assert admission.inflight == 1
        status, headers, body = await request(
            port, "POST", "/query?values=1", b"count(doc('doc.xml')//b)"
        )
        assert status == 429
        assert float(headers["retry-after"]) > 0
        assert json.loads(body)["code"] == "overloaded"
        service.gate.set()
        status, _, body = await slow
        assert (status, body) == (200, "2")
        assert admission.shed == 1 and admission.admitted == 1
        await server.drain(2.0)

    asyncio.run(main())


def test_budget_exceeded_is_structured_422():
    service = ShardedService(shards=1, pool_size=2)
    service.load("doc.xml", DOC)
    app = ServingApp(service, max_budget=CostBudget(max_node_visits=100))

    async def main():
        server = _serve(app)
        await server.start()
        status, _, body = await request(
            server.port, "POST", "/query?max_visits=2", b"doc('doc.xml')//b"
        )
        assert status == 422
        report = json.loads(body)
        assert report["code"] == "budget_exceeded"
        assert report["dimension"] == "node_visits"
        assert report["limit"] == 2
        assert report["spent"] > 2
        # Clients cannot loosen the server ceiling.
        status, _, body = await request(
            server.port,
            "POST",
            "/query?max_visits=999999&values=1",
            b"count(doc('doc.xml')//b)",
        )
        assert status == 200  # ceiling (100) still admits this tiny query
        await server.drain(2.0)

    asyncio.run(main())


def test_drain_finishes_inflight_and_refuses_new():
    service = GatedService(pool_size=2)
    service.load("doc.xml", DOC)
    app = ServingApp(service)

    async def main():
        server = _serve(app)
        await server.start()
        port = server.port
        slow = asyncio.ensure_future(
            request(port, "POST", "/query?values=1", b"count(doc('doc.xml')//b)")
        )
        await asyncio.sleep(0.05)
        drain = asyncio.ensure_future(server.drain(5.0))
        await asyncio.sleep(0.05)
        service.gate.set()
        assert await drain is True
        status, _, body = await slow  # the in-flight answer completed
        assert (status, body) == (200, "2")
        try:
            await request(port, "GET", "/healthz")
        except OSError:
            pass  # refused: the listener is closed
        else:
            raise AssertionError("drained server accepted a new connection")

    asyncio.run(main())


def test_drain_is_idempotent():
    service = ShardedService(shards=1, pool_size=1)
    service.load("doc.xml", DOC)

    async def main():
        server = _serve(ServingApp(service))
        await server.start()
        assert await server.drain(2.0) is True
        assert await server.drain(2.0) is True

    asyncio.run(main())


def test_deadline_bounds_the_drain():
    service = GatedService(pool_size=1)
    service.load("doc.xml", DOC)
    admission = AdmissionController(max_inflight=1)

    async def main():
        server = _serve(ServingApp(service, admission=admission))
        await server.start()
        stuck = asyncio.ensure_future(
            request(server.port, "POST", "/query", b"count(doc('doc.xml')//b)")
        )
        for _ in range(400):
            if admission.inflight == 1:
                break
            await asyncio.sleep(0.005)
        assert admission.inflight == 1
        # The gate never opens: the drain must give up at the deadline
        # and cut the connection instead of waiting for the worker.
        loop = asyncio.get_running_loop()
        started = loop.time()
        assert await server.drain(0.2) is False
        assert loop.time() - started < 5.0
        with pytest.raises((asyncio.IncompleteReadError, ConnectionError, IndexError)):
            await stuck  # bare EOF: no status line ever arrives
        service.gate.set()

    asyncio.run(main())


def test_metrics_prometheus_exposes_serving_counters():
    service = ShardedService(shards=1, pool_size=1)
    service.load("doc.xml", DOC)
    app = build_serving(service, replicas=1, max_inflight=2)

    async def main():
        server = _serve(app)
        await server.start()
        await request(
            server.port, "POST", "/query?values=1", b"count(doc('doc.xml')//b)"
        )
        status, _, body = await request(
            server.port, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert "serve_admitted" in body.replace(".", "_") or "serve" in body
        status, _, body = await request(server.port, "GET", "/metrics")
        report = json.loads(body)
        assert report["admission"]["admitted"] >= 1
        assert report["replication"][0]["shipped"] == 0
        await server.drain(2.0)

    asyncio.run(main())


# -- malformed framing and bodies ---------------------------------------------


def _raw(port: int, payload: bytes) -> tuple[int, dict, dict]:
    """Send raw bytes, read to EOF; returns (status, headers, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(payload)
        received = b""
        while chunk := conn.recv(65536):
            received += chunk
    assert received, "the server closed the connection without answering"
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    assert int(headers["content-length"]) == len(body)
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.fixture
def raw_server(caplog):
    """A served one-shard collection; afterwards, nothing may have escaped a
    connection task (asyncio reports those on its logger)."""
    service = ShardedService(shards=1, pool_size=1)
    service.load("doc.xml", DOC)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with served(service) as handle:
            yield handle
        gc.collect()  # "Task exception was never retrieved" is logged on collection
    escaped = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert not escaped, escaped


@pytest.mark.parametrize(
    "payload, status",
    [
        (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /query HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", 400),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n", 400),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (_MAX_BODY + 1),
            413,
        ),
    ],
    ids=[
        "length-not-a-number", "length-negative", "length-signed",
        "request-line-short", "request-line-long", "request-line-over-limit",
        "header-over-limit", "body-over-max",
    ],
)
def test_malformed_framing_is_answered_then_closed(raw_server, payload, status):
    answered, headers, body = _raw(raw_server.port, payload)
    assert answered == status
    assert headers["connection"] == "close"
    assert "application/json" in headers["content-type"]
    assert body["error"]
    # The listener survives: the next connection is served.
    answered, _, body = _raw(
        raw_server.port, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert (answered, body["status"]) == (200, "ok")


@pytest.mark.parametrize("path", ["/query", "/explain", "/update"])
def test_invalid_utf8_body_is_400(raw_server, path):
    body = b"doc('doc.xml')//b[. = '\xff\xfe']"
    status, _, report = _raw(
        raw_server.port,
        b"POST %s HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        % (path.encode(), len(body), body),
    )
    assert status == 400
    assert "UTF-8" in report["error"]


def test_deeply_nested_query_is_400_not_500(raw_server):
    body = b"(" * 200 + b"1" + b")" * 200
    status, _, report = _raw(
        raw_server.port,
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        % (len(body), body),
    )
    assert status == 400
    assert "nested deeper than" in report["error"]


def test_deeply_nested_spec_is_400_not_500(raw_server):
    spec = "a { " * 1000 + "}" * 1000
    body = f'virtualDoc("doc.xml", "{spec}")//a'.encode()
    status, _, report = _raw(
        raw_server.port,
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        % (len(body), body),
    )
    assert status == 400
    assert "nested deeper than" in report["error"]
