"""Process-based shard workers (`serve --shard-workers process`).

Thread scatter shares one address space, so merged items are live nodes
and ``to_xml`` writes them in the coordinator.  Process scatter
(:class:`ProcessShardPool`) instead gives every shard its own worker
process — its own interpreter, engine pool, and stores — which sidesteps
the GIL for CPU-bound shard evaluation on multi-core machines, at the
price of a narrower contract:

* documents are loaded by shipping their XML text to the worker
  (``load``); images, durable stores, warmup, and updates stay
  thread-mode features — the pool is for read-mostly serving;
* result items come back *materialized*: each node crosses the pipe as
  its serialized XML plus its XPath string value
  (:class:`~repro.query.items.RemoteItem`), not as a live object;
* per-shard trace spans ride back with the results: requests carry the
  coordinator's :class:`~repro.obs.trace.SpanContext` carrier, the
  worker roots a ``shard.worker`` trace under it (same trace id — ids
  are 64-bit random, so worker-minted span ids cannot collide), and the
  finished fragment ships home as a plain dict that the coordinator
  stitches under its ``shard.scatter`` span.

The merge contract is unchanged: workers cut their streams into the same
attributed, verified runs (:func:`repro.shard.merge.stream_runs`) and
write each run of same-type virtual nodes with one batch, so the
coordinator orders pipe payloads exactly as it orders live streams.

The protocol is one request / one reply per pipe, requests are tuples
(picklable plans — the AST is frozen dataclasses — ship directly), and
any worker-side exception comes back as ``("error", kind, message)`` and
re-raises in the coordinator as a :class:`ShardError`.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from repro.core.values import ValueStats, write_batch
from repro.core.virtual_document import VNode
from repro.obs.trace import SpanContext, current_context, span
from repro.query.engine import Result
from repro.query.items import RemoteItem, is_node, string_value, write_item
from repro.shard.catalog import ShardError


def _payloads(items: list, stats: ValueStats) -> list:
    """Each item as a pipe payload: ``("node", xml, value)`` or
    ``("atomic", value)``.  A run of consecutive virtual nodes of one
    type and view is written with one :func:`write_batch`, as
    ``to_xml`` writes it."""
    payloads: list = []
    index, count = 0, len(items)
    while index < count:
        item = items[index]
        end = index + 1
        if type(item) is VNode:
            while (
                end < count
                and type(items[end]) is VNode
                and items[end].vtype is item.vtype
                and items[end]._vdoc is item._vdoc
            ):
                end += 1
            run = items[index:end]
            payloads.extend(
                ("node", xml, string_value(vnode))
                for xml, vnode in zip(write_batch(run, [], stats), run)
            )
        elif is_node(item):
            parts: list[str] = []
            write_item(item, parts, stats)
            payloads.append(("node", "".join(parts), string_value(item)))
        else:
            payloads.append(("atomic", item))
        index = end
    return payloads


def _revive(payload):
    kind = payload[0]
    if kind == "node":
        return RemoteItem(payload[1], payload[2])
    return payload[1]


def _worker_trace(service, carrier):
    """Root a ``shard.worker`` trace under the coordinator's carrier
    (the worker's tracer never samples on its own: it records exactly
    when the coordinator's sampled carrier says to)."""
    parent = SpanContext(*carrier) if carrier is not None else None
    return service.tracer.start("shard.worker", stats=service.stats, parent=parent)


def _worker_fragment(handle):
    """The finished trace as a shippable fragment dict, or ``None``."""
    trace = handle.trace
    return trace.fragment() if trace is not None else None


def worker_main(conn, mode: str, pool_size: int) -> None:
    """The worker process loop: one :class:`QueryService` per shard,
    commands in, picklable payloads out.  Runs until ``close`` or EOF."""
    from repro.service.service import QueryService
    from repro.shard.merge import source_ordinals, stream_runs

    service = QueryService(pool_size=pool_size, mode=mode)
    while True:
        try:
            request = conn.recv()
        except EOFError:  # coordinator died; exit quietly
            return
        try:
            command = request[0]
            if command == "close":
                conn.send(("ok", None))
                return
            if command == "load":
                _, uri, text = request
                service.load(uri, text)
                conn.send(("ok", None))
            elif command == "query":
                _, text, mode_override, variables, carrier = request
                handle = _worker_trace(service, carrier)
                with handle:
                    result = service.execute(
                        text, mode=mode_override, variables=variables
                    )
                    payloads = _payloads(result.unsettled, ValueStats())
                remote = _worker_fragment(handle)
                conn.send(("ok", (payloads, result.elapsed_seconds, remote)))
            elif command == "plan":
                _, expr, mode_override, owned, combine, carrier = request
                handle = _worker_trace(service, carrier)
                with handle:
                    result = service.execute_plan(expr, mode_override, None)
                    if combine:
                        shipped = [(None, [("atomic", result.items[0])])]
                    else:
                        sources = [
                            ((kind, uri, spec), ordinal) for ordinal, kind, uri, spec in owned
                        ]
                        runs = stream_runs(
                            result.items, source_ordinals(result.sources, sources)
                        )
                        stats = ValueStats()
                        shipped = [(ordinal, _payloads(run, stats)) for ordinal, run in runs]
                remote = _worker_fragment(handle)
                conn.send(("ok", (shipped, remote)))
            else:
                conn.send(("error", "ShardError", f"unknown command {command!r}"))
        except Exception as error:  # ship the failure, keep serving
            conn.send(("error", type(error).__name__, str(error)))


class ProcessShardPool:
    """One worker process per shard, lazily spawned, pipe per worker."""

    def __init__(self, shards: int, mode: str = "indexed", pool_size: int = 1) -> None:
        self.shards = shards
        self.mode = mode
        self.pool_size = pool_size
        self._context = multiprocessing.get_context("fork")
        self._workers: dict[int, tuple] = {}

    def _connection(self, shard: int):
        worker = self._workers.get(shard)
        if worker is None:
            parent, child = self._context.Pipe()
            process = self._context.Process(
                target=worker_main,
                args=(child, self.mode, self.pool_size),
                daemon=True,
                name=f"shard-worker-{shard}",
            )
            process.start()
            child.close()
            worker = (process, parent)
            self._workers[shard] = worker
        return worker[1]

    def _call(self, shard: int, request: tuple):
        conn = self._connection(shard)
        conn.send(request)
        reply = conn.recv()
        if reply[0] == "ok":
            return reply[1]
        raise ShardError(f"shard {shard} worker {reply[1]}: {reply[2]}")

    def load(self, shard: int, uri: str, text: str) -> None:
        self._call(shard, ("load", uri, text))

    def execute_routed(
        self, shard: int, query: str, mode: Optional[str], variables=None
    ) -> Result:
        with span("shard.route", f"shard={shard}") as route_span:
            payloads, elapsed, remote = self._call(
                shard, ("query", query, mode, variables, current_context())
            )
            if remote is not None:
                route_span.adopt(remote)
        return Result([_revive(p) for p in payloads], elapsed)

    def execute_plan(
        self,
        shard: int,
        expr,
        mode: Optional[str],
        owned: list,
        combine: Optional[str] = None,
        carrier: Optional[SpanContext] = None,
    ):
        """The stream's runs, materialized, for the global merge (one
        ordinal-less run holding the per-shard aggregate under
        ``combine``), plus the worker's span fragment (``None``
        untraced) for stitching."""
        shipped, remote = self._call(
            shard, ("plan", expr, mode, owned, combine, carrier)
        )
        return [
            (ordinal, [_revive(payload) for payload in payloads])
            for ordinal, payloads in shipped
        ], remote

    def close(self) -> None:
        for shard, (process, conn) in self._workers.items():
            try:
                conn.send(("close",))
                conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
        self._workers.clear()
