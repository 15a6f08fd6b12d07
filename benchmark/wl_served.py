"""``served_mix`` — the served path.

``python -m repro serve --async --shards 2 --replicas 1 --trace-sample 0``
as a subprocess over 8 books documents, driven by two closed-loop
keep-alive connections (one thread each).  A connection sends rounds of
100 ops in seeded order: 60 single-document ``count()`` point queries,
23 single-document value-predicate queries, 8 stored unions and 7
``virtualDoc`` unions over the connection's own 4 documents (2 shards),
2 ``POST /update`` (``ReplaceText`` on a title).  A connection writes,
value-reads and unions only its own half of the collection, so it always
knows the exact state of what it reads.  83 % of ops cost about a millisecond
of engine time, so ``query_p50_ms`` is HTTP parse + admission + worker
offload + routing + plan-cache hit, while ``query_p95_ms`` sits in the
scatter/merge class and the writes keep the replica redo path live.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.query.engine import Engine
from repro.serve import build_serving
from repro.shard import ShardedService
from repro.shard.catalog import stable_shard
from repro.updates.mutations import apply_op

import layers
from inputs import BOOK_SPEC, SIZES, BookModel, Query
from ledger import ROOT, Rows, Samples, SpanLog, median, percentile, timed, undisturbed

SIZE = SIZES["served_mix"]
READY_TIMEOUT_S = 60.0
#: One round of a connection: 100 ops in seeded order.
MIX = {"point": 60, "pred": 23, "union": 8, "vunion": 7, "update": 2}
#: Op class -> its role and name in the run's samples; the two unions are
#: the workload's virtual / stored pair.
CLASS = {
    "point": ("read", "point"), "pred": ("read", "pred"),
    "union": ("stored", "union"), "vunion": ("virtual", "union"),
    "update": ("update", "replace"),
}


class Server:
    """The serving subprocess: OS-assigned port, ready-line wait with a
    timeout, SIGTERM + wait on stop."""

    def __init__(self, paths: dict, workdir: str) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--async", "--shards", "2",
                   "--replicas", "1", "--trace-sample", "0", "--port", "0",
                   "--drain-deadline-s", "2"]
        for uri, path in paths.items():
            command += ["-d", f"{uri}={path}"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.log_path = os.path.join(workdir, "server.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=log)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([stdout], [], [], remaining)[0]
            line = stdout.readline().decode() if ready else ""
            if line.startswith("serving (async) on http://"):
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if not line:
                with open(self.log_path, errors="replace") as log:
                    raise RuntimeError(f"server not ready: {log.read()[-2000:]}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: str = "") -> tuple[int, bytes]:
        self.connection.request(method, path, body=body.encode("utf-8"))
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


@dataclass
class State:
    seed: int
    models: list
    paths: dict
    server: Server
    clients: list
    generate_s: float


def make_models(seed: int) -> list[BookModel]:
    return [
        BookModel(f"b{index}.xml", SIZE["books"], seed * 100 + index, tag=f"{index}-")
        for index in range(SIZE["documents"])
    ]


def unions(models) -> tuple[str, str]:
    stored = " | ".join(f'doc("{m.uri}")//title' for m in models)
    virtual = " | ".join(f'virtualDoc("{m.uri}", "{BOOK_SPEC}")//title' for m in models)
    return stored, virtual


def mix_rounds(rng: random.Random):
    """Endless rounds of op classes, each the exact mix in shuffled order."""
    while True:
        block = [kind for kind, count in MIX.items() for _ in range(count)]
        rng.shuffle(block)
        yield block


class Op(NamedTuple):
    """One request: where it goes, how its answer is checked against the
    generator's model, and what an acknowledgement changes in the model."""

    path: str
    body: str
    check: Callable[[bytes], bool]
    acknowledged: Callable[[], None] = lambda: None


def draw(rng: random.Random, own: list, models: list, kind: str) -> Op:
    """An op of class ``kind`` for the connection that owns ``own``;
    point queries may hit any of ``models``."""
    if kind == "point":
        model = rng.choice(models)
        count = str(len(model.books))
        return Op("/query?values=1", f'count(doc("{model.uri}")//title)',
                  lambda payload: payload.decode() == count)
    if kind == "pred":
        model = rng.choice(own)
        book = rng.choice(model.books)
        names = "\n".join(book.names)
        return Op("/query?values=1",
                  f'doc("{model.uri}")//book[title = "{book.title}"]/author/name/text()',
                  lambda payload: payload.decode() == names)
    if kind == "update":
        model = rng.choice(own)
        op = model.next_op(rng, "replace")
        return Op(f"/update?uri={model.uri}", json.dumps(op.to_json()),
                  lambda payload: True, model.applied)
    total = sum(len(model.books) for model in own)
    stored, virtual = unions(own)
    return Op("/query", stored if kind == "union" else virtual,
              lambda payload: payload.count(b"<title>") == total)


def own_models(models: list, index: int) -> list:
    """Connection ``index``'s share of the collection, dealt shard by
    shard so that every connection owns documents on both shards and its
    unions scatter.  A connection writes, value-reads and unions only its
    own documents: a scatter racing with an update of one of its sources
    is answered 400 ("a scatter result item cannot be attributed to a
    document source") about once in 2000 ops, so the workload keeps them
    apart — no op of a benchmark workload may fail."""
    by_shard = sorted(models, key=lambda model: stable_shard(model.uri, 2))
    return by_shard[index::SIZE["connections"]]


def op_sequence(seed: int, workdir: str) -> list:
    """The first two rounds of connection 0, as the server sees them when
    it acknowledges every update."""
    models = make_models(seed)
    rng = random.Random(seed * 1000)
    ops = []
    for block in itertools.islice(mix_rounds(rng), 2):
        for kind in block:
            op = draw(rng, own_models(models, 0), models, kind)
            op.acknowledged()
            ops.append((op.path, op.body))
    return ops


def setup(seed: int, workdir: str) -> State:
    models, ms = timed(make_models, seed)
    paths = {}
    for model in models:
        paths[model.uri] = os.path.join(workdir, model.uri)
        with open(paths[model.uri], "w", encoding="utf-8") as out:
            out.write(model.xml)
    server = Server(paths, workdir)
    state = State(seed, models, paths, server, [], ms / 1e3)
    try:
        state.clients = [Client(server.port) for _ in range(SIZE["connections"])]
        rng = random.Random(seed)
        for index, client in enumerate(state.clients):  # warm plans, views, columns
            for kind in ("point", "pred", "union", "vunion"):
                op = draw(rng, own_models(models, index), models, kind)
                status, payload = client.request("POST", op.path, op.body)
                if status != 200 or not op.check(payload):
                    raise RuntimeError(f"warm {kind} answered {status}")
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: State) -> None:
    for client in state.clients:
        client.close()
    state.server.stop()
    for path in state.paths.values():
        os.remove(path)
    os.remove(state.server.log_path)


def _stream(state: State, index: int, seconds: float) -> dict:
    """One connection's closed loop: whole rounds until the deadline (a
    round cut short by it counts its ops but is no round)."""
    rng = random.Random(state.seed * 1000 + index)
    own = own_models(state.models, index)
    client = state.clients[index]
    out = {"samples": Samples(), "ops": 0, "failed": 0, "shed": 0, "round_s": []}
    deadline = time.perf_counter() + seconds
    for block in mix_rounds(rng):
        started = time.perf_counter()
        if out["round_s"] and started >= deadline:
            break
        for kind in block:
            if out["round_s"] and time.perf_counter() >= deadline:
                return out
            op = draw(rng, own, state.models, kind)
            (status, payload), ms = timed(client.request, "POST", op.path, op.body)
            out["ops"] += 1
            out["shed"] += status == 429
            if status != 200 or not op.check(payload):
                print(f"served_mix: wrong answer ({status}) to {kind} {op.body[:120]!r}: "
                      f"{payload[:120]!r}", file=sys.stderr)
                out["failed"] += 1
                continue
            op.acknowledged()
            out["samples"].add(*CLASS[kind], ms)
        out["round_s"].append(time.perf_counter() - started)
    return out


def _drive(state: State, seconds: float, connections: int) -> dict:
    """Run ``connections`` closed loops side by side and merge them."""
    results = [None] * connections

    def work(index: int) -> None:
        results[index] = _stream(state, index, seconds)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = {"samples": Samples(), "ops": 0, "failed": 0, "shed": 0, "round_s": []}
    for result in results:
        if result is None:
            raise RuntimeError("a connection thread died")
        merged["samples"].merge(result["samples"])
        for key in ("ops", "failed", "shed", "round_s"):
            merged[key] += result[key]
    return merged


def _read_back(state: State) -> tuple[int, int]:
    """Every title of every document, against the models."""
    failed = 0
    for model in state.models:
        status, payload = state.clients[0].request(
            "POST", "/query?values=1", f'doc("{model.uri}")//book/title/text()')
        failed += status != 200 or payload.decode().split("\n") != model.titles()
    return len(state.models), failed


def run(state: State, seconds: float, rows: Rows) -> dict:
    merged = _drive(state, seconds, SIZE["connections"])
    checks, wrong = _read_back(state)
    updates = merged["samples"].profile("update")
    rows.add("update_p50_ms", percentile(updates, 0.5), len(updates))
    return {
        "ops": merged["ops"] + checks, "failed": merged["failed"] + wrong,
        "samples": merged["samples"], "rss_mb": state.server.peak_rss_mb(),
        # Measured, not summed from class latencies: the connections run
        # side by side.  The collection's rate is a connection's round
        # rate times the connections running beside it.
        "throughput_ops_s": SIZE["connections"] * sum(MIX.values()) / undisturbed(merged["round_s"]),
    }


# -- traced run -----------------------------------------------------------------


def _twin(state: State, shards: int) -> ShardedService:
    service = ShardedService(shards=shards, pool_size=2)
    for model in state.models:
        service.load(model.uri, model.xml)
    return service


def _answer(result, kind: str) -> str:
    return "\n".join(result.values()) if kind in ("point", "pred") else result.to_xml()


def trace(state: State, seconds: float, rows: Rows, spans: SpanLog) -> dict:
    rows.add("workloads.generate_s", state.generate_s)
    ops, failed = _probe_server(state, seconds / 2, rows)
    checks, wrong = _read_back(state)
    rung_ops, rung_failed, engine, classes = _twin_ladder(state, seconds / 4, rows, spans)
    models = state.models
    fresh = layers.load_ladder({model.uri: model.xml for model in models}, rows, spans, repeats=1)
    rows.add("pbn.column_bytes_per_node", layers.column_footprint(fresh))
    layers.view_ladder(engine, [(model.uri, BOOK_SPEC) for model in models], rows, spans, repeats=2)
    layers.cost_counts(engine, list({(query.kind, query.name): query for query in classes}.values()), rows)
    layers.pbn_probes(engine, models[0].uri, BOOK_SPEC, state.seed, rows)
    return {"ops": ops + checks + rung_ops, "failed": failed + wrong + rung_failed}


def _probe_server(state: State, seconds: float, rows: Rows) -> tuple[int, int]:
    """What only the live subprocess can tell: head-of-line blocking,
    replica catch-up, and its own ``/metrics`` counters."""
    models, client = state.models, state.clients[0]
    # Head-of-line: the same mix on one connection, then on two.
    alone = _drive(state, seconds / 2, 1)
    paired = _drive(state, seconds / 2, 2)
    ops = alone["ops"] + paired["ops"]
    failed = alone["failed"] + paired["failed"]
    # Medians, not undisturbed latencies: the wait behind the other
    # connection's request is the very thing this ratio measures.
    point = [drive["samples"].by_class["read", "point"] for drive in (paired, alone)]
    rows.add("serve.hol_ratio", median(point[0]) / median(point[1]), len(point[0]))
    rows.add("serve.shed_share", (alone["shed"] + paired["shed"]) / ops, ops)

    # Replica catch-up: a point read, a write to the same document, the
    # same read again (the replica redoes the shipped op before it answers).
    rng = random.Random(state.seed)
    steady, after, update_ms = [], [], []
    for _ in range(20):
        model = rng.choice(own_models(models, 0))
        read = draw(rng, [model], [model], "point")
        steady.append(timed(client.request, "POST", read.path, read.body)[1])
        write = draw(rng, [model], models, "update")
        (status, _), ms = timed(client.request, "POST", write.path, write.body)
        failed += status != 200
        write.acknowledged()
        update_ms.append(ms)
        (status, payload), ms = timed(client.request, "POST", read.path, read.body)
        failed += status != 200 or not read.check(payload)
        after.append(ms)
        ops += 3
    rows.add("serve.replica_catchup_ms", undisturbed(after) - undisturbed(steady), len(after))
    rows.add("update_p50_ms", undisturbed(update_ms), len(update_ms))

    counters = json.loads(client.request("GET", "/metrics")[1])["counters"]
    replica_reads = counters.get("serve.replica.reads", 0)
    rows.add("serve.replica_read_share",
             replica_reads / (replica_reads + counters.get("serve.replica.fallbacks", 0)), replica_reads)
    for cache in ("plan", "view"):
        hits, misses = counters.get(f"cache.{cache}.hits", 0), counters.get(f"cache.{cache}.misses", 0)
        rows.add(f"service.{cache}_cache_hit_share", hits / (hits + misses), hits + misses)
    shipped = counters.get("serve.replica.shipped", 0)
    rows.add("service.view_evictions_per_update",
             counters.get("cache.view.update_evictions", 0) / shipped, shipped)
    return ops, failed


def _twin_ladder(state: State, seconds: float, rows: Rows, spans: SpanLog):
    """The entry-point ladder: each op over HTTP to the subprocess, then
    on an in-process twin of it through ``ServingApp.handle``,
    ``ShardedService.execute``, ``QueryService.execute`` and
    ``Engine.execute``; unions also on a 1-shard twin.  Returns ``(ops,
    failed, the twin's engine, the ops as queries)``."""
    client = state.clients[0]
    rng = random.Random(state.seed + 1)
    sharded, single = _twin(state, 2), _twin(state, 1)
    app = build_serving(sharded, replicas=1)
    loop = asyncio.new_event_loop()
    engine = Engine(stats=sharded.stats, plan_cache=sharded.plan_cache)
    for model in state.models:
        engine.attach(model.uri, sharded.store(model.uri))
    models = make_models(state.seed)  # the twin starts from the original documents
    rungs = {kind: {name: [] for name in ("http", "handle", "sharded", "service", "engine", "single")}
             for kind in ("point", "pred", "union", "vunion")}
    classes, failed = [], 0
    deadline = time.perf_counter() + seconds
    try:
        while not classes or time.perf_counter() < deadline:
            # Point ops decide query_p50_ms, so they get most of the rounds.
            for kind in ["point"] * 8 + ["pred"] * 4 + ["union", "vunion"]:
                model = rng.choice(models)
                own = [model] if kind in ("point", "pred") else own_models(models, 0)
                path, body, check, _ = draw(rng, own, own, kind)
                params = {"values": "1"} if "values" in path else {}
                op = f"{kind}:{len(rungs[kind]['http'])}"
                taken = {}
                _, taken["http"] = spans.call("HTTP", op, None, client.request, "POST", path, body)
                response, taken["handle"] = spans.call(
                    "ServingApp.handle", op, taken["http"], loop.run_until_complete,
                    app.handle("POST", "/query", params, {}, body.encode()))
                failed += response.status != 200 or not check(response.body)
                _, taken["sharded"] = spans.call(
                    "ShardedService.execute", op, taken["handle"],
                    lambda: _answer(sharded.execute(body), kind))
                if kind in ("point", "pred"):
                    service = sharded.service_for(model.uri)
                    _, taken["service"] = spans.call(
                        "QueryService.execute", op, taken["sharded"],
                        lambda: _answer(service.execute(body), kind))
                    _, taken["engine"] = spans.call(
                        "Engine.execute", op, taken["service"],
                        lambda: _answer(engine.execute(body), kind))
                else:  # the same union without a scatter
                    _, taken["single"] = spans.call(
                        "ShardedService.execute(1 shard)", op, None,
                        lambda: _answer(single.execute(body), kind))
                for name, span in taken.items():
                    rungs[kind][name].append(span.ms)
                classes.append(Query(*CLASS[kind][::-1], model.uri, BOOK_SPEC, body))
        point = {name: undisturbed(values) for name, values in rungs["point"].items()}
        for name, upper, lower in (
            ("serve.http_overhead_ms", "http", "handle"),
            ("serve.handle_overhead_ms", "handle", "sharded"),
            ("shard.route_overhead_ms", "sharded", "service"),
            ("service.execute_overhead_ms", "service", "engine"),
        ):
            rows.add(name, point[upper] - point[lower], len(rungs["point"][upper]))
        scatter = rungs["union"]["sharded"]
        rows.add("shard.scatter_ms", undisturbed(scatter), len(scatter))
        rows.add("shard.scatter_speedup", undisturbed(rungs["union"]["single"]) / undisturbed(scatter),
                 len(scatter))
        for kind, samples in rungs.items():
            for name, values in samples.items():
                if values:
                    rows.add(f"rung.{kind}.{name}_ms", undisturbed(values), len(values), "ms")

        # Below Engine.execute: parse / view / eval / serialization.
        ladder = layers.query_samples()
        layers.query_ladder(engine.execute, engine, classes[:28], ladder, spans)
        layers.ladder_metrics(ladder, rows, plan_cached=True)

        # The write path: the routed, replica-shipping update, then the
        # in-memory apply alone on the version it replaced.
        apply_ms, publish_ms = [], []
        for _ in range(10):
            model = rng.choice(models)
            update = model.next_op(rng, "replace")
            before = sharded.store(model.uri)
            _, routed = spans.call("ShardedService.update", "update", None, sharded.update, model.uri, update)
            _, applied = spans.call("apply_op", "update", None, apply_op, before, update)
            model.applied()
            apply_ms.append(applied.ms)
            publish_ms.append(routed.ms - applied.ms)
        rows.add("updates.apply_ms", undisturbed(apply_ms), len(apply_ms))
        # A difference of two calls that do the same 25 ms of work: at
        # noise level, and the median of the pairs can come out negative.
        rows.add("updates.publish_ms", median(publish_ms), len(publish_ms))
        for model in models:  # the twin's stores after its updates
            engine.attach(model.uri, sharded.store(model.uri))
    finally:
        loop.close()
        app.close()
        sharded.close()
        single.close()
    return len(classes), failed, engine, classes
