"""The asyncio HTTP/1.1 front end for :class:`~repro.serve.app.ServingApp`.

One event loop accepts connections and parses requests; the app answers
budget-bounded point reads on the loop and offloads every other piece of
engine work to its worker pool (see :mod:`repro.serve.app`), so
thousands of idle keep-alive connections cost one task each, not one
thread each.  Connections are HTTP/1.1 keep-alive by default;
``Connection: close`` ends the connection after the response, and
malformed framing is answered with a structured JSON ``400``/``413``
before the connection closes.

Graceful drain (:meth:`AsyncHTTPServer.drain`): stop accepting, let
in-flight requests finish within a bounded deadline, then close every
lingering connection.  :func:`serve_async` wires SIGTERM/SIGINT to the
drain, which is the contract the CLI's ``serve`` exposes.
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.serve.app import Response, ServingApp, _json_response

_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: Refuse request bodies larger than this (16 MiB).
_MAX_BODY = 16 * 1024 * 1024


class _BadFraming(Exception):
    """A request the parser cannot frame; answered with ``status`` and
    ``Connection: close`` (what follows on the wire is unknowable)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AsyncHTTPServer:
    """One asyncio server bound to one :class:`ServingApp`."""

    def __init__(
        self, app: ServingApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, deadline_s: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, wait (bounded) for in-flight
        connections, then force-close stragglers.  Returns ``True`` when
        everything finished inside the deadline."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._connections if not task.done()]
        clean = True
        if pending:
            done, unfinished = await asyncio.wait(pending, timeout=deadline_s)
            clean = not unfinished
            for task in unfinished:
                task.cancel()
            if unfinished:
                await asyncio.gather(*unfinished, return_exceptions=True)
        self.app.close()
        return clean

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while not self._draining:
                try:
                    request = await self._read_request(reader)
                except _BadFraming as error:
                    response = _json_response(error.status, {"error": str(error)})
                    await self._write_response(writer, response, keep_alive=False)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                parsed = urlparse(target)
                params = {
                    key: values[0]
                    for key, values in parse_qs(parsed.query).items()
                }
                response = await self.app.handle(
                    method, parsed.path, params, headers, body
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        """Parse one request; ``None`` on clean EOF, :class:`_BadFraming`
        on a request line, header or ``Content-Length`` it cannot frame.

        The head (request line and headers, CRLF-terminated as HTTP/1.1
        requires) is read with one ``readuntil``; a head longer than the
        stream's limit is the same ``400`` as a malformed one."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            head = error.partial  # the peer closed mid-head: frame what came
        except asyncio.LimitOverrunError:
            raise _BadFraming(400, "request line or header too long") from None
        except ConnectionResetError:
            return None
        request_line, *lines = head.decode("latin-1").split("\r\n")
        parts = request_line.strip().split()
        if len(parts) != 3:
            raise _BadFraming(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        # isdigit, not int(): int() also takes "+5", "1_0" and " 5 ".
        if not (declared.isascii() and declared.isdigit()):
            raise _BadFraming(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > _MAX_BODY:
            raise _BadFraming(413, f"request body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _write_response(
        self, writer, response: Response, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}; charset=utf-8",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        head.append("\r\n")
        writer.write("\r\n".join(head).encode("latin-1") + response.body)
        await writer.drain()


async def serve_async(
    app: ServingApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    drain_deadline_s: float = 10.0,
) -> None:
    """Run the server until SIGTERM/SIGINT, then drain gracefully (the
    ``repro serve`` entry point)."""
    import signal

    server = AsyncHTTPServer(app, host=host, port=port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    print(
        f"serving (async) on http://{host}:{server.port}  "
        "(POST /query, POST /update, POST /explain, GET /metrics, "
        "GET /replication, GET /debug/traces)",
        flush=True,
    )
    try:
        await stop.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    print("draining", flush=True)
    await server.drain(drain_deadline_s)
