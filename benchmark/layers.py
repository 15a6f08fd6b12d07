"""Per-layer probes shared by the traced runs.

Each function times calls into *public* functions of one or two
``src/repro`` packages, wrapping every call in a benchmark-side span,
and adds the layer's metrics to the result rows.  A rung's self time is
its undisturbed latency minus that of the rungs it calls.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.level_arrays import build_level_arrays
from repro.core.vpbn import v_ancestor, v_preceding
from repro.dataguide.build import build_dataguide
from repro.pbn.assign import assign_numbers
from repro.pbn.axes import is_ancestor, is_preceding
from repro.pbn.succinct import build_column
from repro.query.engine import Engine
from repro.query.parser import parse_query
from repro.storage.persist import load_store, save_store
from repro.storage.store import DocumentStore
from repro.vdataguide.grammar import parse_vdataguide
from repro.xmlmodel.parser import parse_document

from ledger import Rows, Samples, SpanLog, median, timed, undisturbed


def load_ladder(xml_by_uri: dict, rows: Rows, spans: SpanLog, repeats: int = 3) -> list:
    """``Engine.load`` and the four public calls it is made of, per
    document; sums over the collection, undisturbed over ``repeats``.
    Returns the freshly built stores of the last repeat."""
    totals = {name: [] for name in ("load", "parse", "assign", "guide", "store")}
    for repeat in range(repeats):
        once = dict.fromkeys(totals, 0.0)
        stores = []
        for uri, xml in xml_by_uri.items():
            op = f"load:{uri}:{repeat}"
            _, load = spans.call("Engine.load", op, None, Engine().load, uri, xml)
            document, parse = spans.call("parse_document", op, load, parse_document, xml, uri)
            _, assign = spans.call("assign_numbers", op, load, assign_numbers, document)
            _, guide = spans.call("build_dataguide", op, load, build_dataguide, document)
            store, built = spans.call("DocumentStore", op, load, DocumentStore, document)
            stores.append(store)
            for name, span in zip(totals, (load, parse, assign, guide, built)):
                once[name] += span.ms / 1e3
        for name, value in once.items():
            totals[name].append(value)
    seconds = {name: undisturbed(values) for name, values in totals.items()}
    megabytes = sum(len(xml.encode("utf-8")) for xml in xml_by_uri.values()) / 1e6
    rows.add("xmlmodel.parse_mb_s", megabytes / seconds["parse"], repeats)
    rows.add("pbn.assign_s", seconds["assign"], repeats)
    rows.add("dataguide.build_s", seconds["guide"], repeats)
    # DocumentStore(document) rebuilds the guide; its self time excludes it.
    rows.add("storage.store_build_s", seconds["store"] - seconds["guide"], repeats)
    rows.add("rung.Engine.load_s", seconds["load"], repeats, "s")
    return stores


def view_ladder(engine: Engine, views: list, rows: Rows, spans: SpanLog, repeats: int = 5) -> None:
    """``Engine.build_virtual`` per ``(uri, spec)`` view, with vDataGuide
    resolution and Algorithm 1 timed on their own."""
    build, resolve, arrays = [], [], []
    for repeat in range(repeats):
        once = [0.0, 0.0, 0.0]
        for uri, spec in views:
            op = f"view:{uri}:{spec}:{repeat}"
            _, top = spans.call("Engine.build_virtual", op, None, engine.build_virtual, uri, spec)
            guide = engine.store(uri).guide
            vguide, resolved = spans.call("parse_vdataguide", op, top, parse_vdataguide, spec, guide)
            _, levelled = spans.call("build_level_arrays", op, top, build_level_arrays, vguide)
            for index, span in enumerate((top, resolved, levelled)):
                once[index] += span.ms
        build.append(once[0])
        resolve.append(once[1])
        arrays.append(once[2])
    # parse_vdataguide runs Algorithm 1 itself; resolution is the rest.
    rows.add("vdataguide.resolve_ms", undisturbed(resolve) - undisturbed(arrays), repeats)
    rows.add("core.level_arrays_ms", undisturbed(arrays), repeats)
    rows.add("core.view_build_ms", undisturbed(build), repeats)


#: The query ladder's rungs: the top call as the untraced run makes it,
#: bare and inside a span, then the public calls it is made of.
RUNGS = ("bare", "top", "parse", "view", "eval", "xml")


def query_samples() -> dict:
    return {rung: Samples() for rung in RUNGS}


def query_ladder(execute, engine: Engine, queries: list, ladder: dict, spans: SpanLog,
                 top_name: str = "Engine.execute+to_xml", spanned=None) -> None:
    """One pass over ``queries`` as an entry-point ladder.  Per op: the
    top rung exactly as the untraced run makes it (``execute(text)`` then
    ``to_xml()``), bare and inside a span (in alternating order), then
    ``parse_query`` / ``Engine.virtual`` / ``Engine.execute(plan)`` /
    ``Result.to_xml`` on ``engine``.  A first-use workload can make the
    top call only once per engine: it passes ``spanned`` True or False on
    alternate passes and a second fresh ``engine`` for the rungs below."""
    for query in queries:
        key = (query.kind, query.name)
        repeat = len(ladder["parse"].by_class.get(key, ()))
        op = f"{query.kind}:{query.name}:{repeat}"
        top = None
        for rung in ("bare", "top") if repeat % 2 else ("top", "bare"):
            if rung == "bare" and spanned is not True:
                ladder["bare"].add(*key, timed(lambda: execute(query.text).to_xml())[1])
            if rung == "top" and spanned is not False:
                _, top = spans.call(top_name, op, None, lambda: execute(query.text).to_xml())
                ladder["top"].add(*key, top.ms)
        plan, span = spans.call("parse_query", op, top, parse_query, query.text)
        ladder["parse"].add(*key, span.ms)
        if query.kind == "virtual":
            _, span = spans.call("Engine.virtual", op, top, engine.virtual, query.uri, query.spec)
            ladder["view"].add(*key, span.ms)
        result, span = spans.call("Engine.execute(plan)", op, top, engine.execute, plan)
        ladder["eval"].add(*key, span.ms)
        _, span = spans.call("Result.to_xml", op, top, result.to_xml)
        ladder["xml"].add(*key, span.ms)


def ladder_metrics(ladder: dict, rows: Rows, plan_cached: bool = False) -> None:
    """The query ladder's per-layer metrics, read like the end-to-end ones:
    medians over the ops with each op at its class's undisturbed latency.
    ``rung.self_ms`` is what the top rung adds over the rungs below it;
    ``plan_cached`` says the top rung resolves its plan from a cache, so
    parsing is not part of it."""
    rows.add("query.parse_ms", median(ladder["parse"].profile()), ladder["parse"].count())
    rows.add("query.eval_ms", median(ladder["eval"].profile()), ladder["eval"].count())
    stored = ladder["xml"].profile("stored", "read")
    rows.add("xmlmodel.serialize_ms", median(stored), len(stored))
    virtual = ladder["xml"].profile("virtual")
    rows.add("core.value_stitch_ms", median(virtual), len(virtual))
    top, bare = ladder["top"].latencies(), ladder["bare"].latencies()
    rows.add("bench.trace_overhead_ratio", sum(top.values()) / sum(bare[key] for key in top), len(top))
    below = [ladder[rung].latencies() for rung in RUNGS[3 if plan_cached else 2:]]
    own = [top[key] - sum(rung.get(key, 0.0) for rung in below) for key in top]
    rows.add("rung.top_ms", median(ladder["top"].profile()), ladder["top"].count(), "ms")
    rows.add("rung.view_ms", median(ladder["view"].profile()), ladder["view"].count(), "ms")
    rows.add("rung.self_ms", median(own), len(own), "ms")


def cost_counts(engine: Engine, queries: list, rows: Rows) -> None:
    """Exact logical costs of one pass over ``queries`` (``StorageStats``
    deltas), and the share of plan steps a batch kernel ran."""
    before = engine.stats.copy()
    items = sum(len(engine.execute(query.text)) for query in queries)
    cost = engine.stats - before
    rows.add("storage.range_scans_per_item", cost.index_range_scans / items, items)
    rows.add("storage.page_reads_per_query", cost.page_reads / len(queries), len(queries))
    touched = cost.buffer_hits + cost.page_reads
    rows.add("storage.buffer_hit_share", cost.buffer_hits / touched if touched else 0.0, touched)
    rows.add("query.comparisons_per_item", cost.comparisons / items, items)
    steps = batched = 0
    for query in queries:
        _, trace = engine.explain_analyze(query.text)
        pending = [trace.root]
        while pending:
            span = pending.pop()
            if isinstance(span, dict):  # a fragment adopted from a worker
                continue
            pending.extend(span.children)
            if span.name == "step":
                steps += 1
                batched += span.attrs.get("kernel", "scalar") != "scalar"
    rows.add("query.batch_kernel_share", batched / steps if steps else 0.0, steps)


def _type_columns(stores):
    """Every non-empty type column of ``stores`` (built on demand)."""
    for store in stores:
        for type_id in range(len(store.types_by_id)):
            column = store.type_index.column(type_id)
            if column is not None:
                yield column


def _ns_per_call(fn, pairs) -> float:
    started = time.perf_counter()
    for x, y in pairs:
        fn(x, y)
    return (time.perf_counter() - started) / len(pairs) * 1e9


def pbn_probes(engine: Engine, uri: str, spec: str, seed: int, rows: Rows) -> None:
    """Column build, codec probe and number-comparison micro-costs: the
    workload's own type columns and numbers, plus seeded synthetic
    columns of 16k and 256k keys for the ns/op-by-size curve."""
    rng = random.Random(seed)
    stores = [engine.store(name) for name in engine.uris()]
    rows.add("pbn.column_bytes_per_node_after_updates", column_footprint(stores))
    build_ms = sum(
        timed(build_column, [tuple(key) for key in column.keys])[1]
        for column in _type_columns(stores)
    )
    rows.add("pbn.column_build_ms", build_ms, len(stores))

    for label, size in (("16k", 1 << 14), ("256k", 1 << 18)):
        keys = sorted({(1, i // 7 + 1, i % 7 + 1, rng.randint(1, 3)) for i in range(size)})
        probes = [rng.choice(keys) for _ in range(20000)]
        for codec in ("raw", "succinct"):
            column = build_column(keys, codec)
            started = time.perf_counter()
            for key in probes:
                column.lower(key)
                column.prefix_bounds(key[:2])
            elapsed = time.perf_counter() - started
            rows.add(f"pbn.probe_ns.{codec}.{label}", elapsed / (2 * len(probes)) * 1e9, 2 * len(probes))

    numbers = [node.pbn for node in engine.execute(f'doc("{uri}")//*').items]
    pairs = [(rng.choice(numbers), rng.choice(numbers)) for _ in range(20000)]
    rows.add("pbn.compare_ns", (_ns_per_call(is_ancestor, pairs) + _ns_per_call(is_preceding, pairs)) / 2, 2 * len(pairs))
    vnumbers = [item.vpbn for item in engine.execute(f'virtualDoc("{uri}", "{spec}")//*').items]
    vpairs = [(rng.choice(vnumbers), rng.choice(vnumbers)) for _ in range(20000)]
    rows.add("core.vpbn_compare_ns", (_ns_per_call(v_ancestor, vpairs) + _ns_per_call(v_preceding, vpairs)) / 2, 2 * len(vpairs))


def column_footprint(stores) -> float:
    """Bytes per node of every type column of ``stores`` under the codec
    each column ends up with (a careted column that fell back from
    succinct to raw tuples shows here).  Builds columns the workload's
    queries never asked for, so traced runs call it last."""
    stores = list(stores)
    nodes = sum(store.size_summary()["nodes"] for store in stores)
    return sum(column.nbytes for column in _type_columns(stores)) / nodes


def image_probe(stores: dict, directory: str, rows: Rows, spans: SpanLog) -> None:
    """``save_store`` / ``load_store`` over the workload's stores."""
    write_s = open_s = 0.0
    for uri, store in stores.items():
        path = os.path.join(directory, f"probe-{uri}.vpbn")
        write_s += spans.call("save_store", f"image:{uri}", None, save_store, store, path)[1].ms / 1e3
        open_s += spans.call("load_store", f"image:{uri}", None, load_store, path)[1].ms / 1e3
        os.remove(path)
    rows.add("storage.image_write_s", write_s, len(stores))
    rows.add("storage.image_open_s", open_s, len(stores))
