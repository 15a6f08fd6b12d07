"""``embedded_read`` — enumeration.

One in-process ``Engine`` over books + auction + dblp; an op is
``Engine.execute(q)`` + ``Result.to_xml()`` over the 13 virtual queries
and their 13 stored counterparts, warm.  This is the paper's
vPBN-vs-PBN comparison: ``query``, ``core``, ``pbn`` and the serializer
do the work; ``serve``, ``shard``, ``service`` and ``updates`` do none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.query.engine import Engine
from repro.transform.materialize import materialize_to_store

import layers
from inputs import SIZES, paired_queries, three_documents
from ledger import Rows, Samples, SpanLog, digest, median, peak_rss_mb, timed

SIZE = SIZES["embedded_read"]


@dataclass
class State:
    seed: int
    xml: dict
    engine: Engine
    queries: list
    expected: dict
    generate_s: float


def load_engine(xml: dict) -> Engine:
    """A fresh engine with every document of ``xml`` loaded."""
    engine = Engine()
    for uri, text in xml.items():
        engine.load(uri, text)
    return engine


def load_collection(sizes: dict, seed: int):
    """Generate, load and return ``(xml, engine, queries, oracle digests,
    generate seconds)``; digests come from ``mode="tree"``."""
    xml, ms = timed(three_documents, sizes, seed)
    engine = load_engine(xml)
    queries = paired_queries()
    expected = {
        query: digest(engine.execute(query.text, mode="tree").to_xml())
        for query in queries
    }
    return xml, engine, queries, expected, ms / 1e3


def setup(seed: int, workdir: str) -> State:
    xml, engine, queries, expected, generate_s = load_collection(SIZE, seed)
    for query in queries:  # warm pass: views, level arrays, columns
        engine.execute(query.text).to_xml()
    return State(seed, xml, engine, queries, expected, generate_s)


def teardown(state: State) -> None:
    pass


def passes(seed: int, queries: list):
    """Endless seeded shuffles of ``queries``, one per pass."""
    rng = random.Random(seed)
    order = list(queries)
    while True:
        rng.shuffle(order)
        yield list(order)


def op_sequence(seed: int, workdir: str) -> list:
    """The generated inputs and the first two passes of ops."""
    order = passes(seed, paired_queries())
    return [digest(text) for text in three_documents(SIZE, seed).values()] + [
        query.text for _ in range(2) for query in next(order)
    ]


def run(state: State, seconds: float, rows: Rows) -> dict:
    samples, rounds, failed = Samples(), 0, 0
    deadline = time.perf_counter() + seconds
    for order in passes(state.seed, state.queries):
        if rounds >= 3 and time.perf_counter() >= deadline:
            break
        for query in order:
            text, ms = timed(lambda: state.engine.execute(query.text).to_xml())
            failed += digest(text) != state.expected[query]
            samples.add(query.kind, query.name, ms)
        rounds += 1
    return {
        "ops": rounds * len(state.queries), "failed": failed,
        "samples": samples, "rss_mb": peak_rss_mb(),
    }


def trace(state: State, seconds: float, rows: Rows, spans: SpanLog) -> dict:
    engine, queries = state.engine, state.queries
    rows.add("workloads.generate_s", state.generate_s)
    ladder, done = layers.query_samples(), 0
    deadline = time.perf_counter() + seconds
    while done < 2 or time.perf_counter() < deadline:
        layers.query_ladder(engine.execute, engine, queries, ladder, spans)
        done += 1
    layers.ladder_metrics(ladder, rows)
    failed = sum(
        digest(engine.execute(query.text).to_xml()) != state.expected[query]
        for query in queries
    )
    layers.load_ladder(state.xml, rows, spans)
    views = sorted({(q.uri, q.spec) for q in queries if q.kind == "virtual"})
    layers.view_ladder(engine, views, rows, spans)
    layers.cost_counts(engine, queries, rows)
    layers.pbn_probes(engine, "book.xml", queries[0].spec, state.seed, rows)
    rows.add("pbn.column_bytes_per_node", rows.value("pbn.column_bytes_per_node_after_updates"))
    _materialize_probe(engine, queries, views, rows, spans)
    return {"ops": (done + 1) * len(queries), "failed": failed}


def _materialize_probe(engine, queries, views, rows: Rows, spans: SpanLog) -> None:
    """Per view: materialize + renumber + re-index + query the copy,
    against the same queries on the virtual view (context for
    ``virtual_over_stored``; the paper's baseline B1)."""
    ratios = []
    for uri, spec in views:
        texts = [q.text for q in queries if q.kind == "virtual" and (q.uri, q.spec) == (uri, spec)]
        virtual_ms = sum(median([timed(lambda: engine.execute(t).to_xml())[1] for _ in range(3)]) for t in texts)
        source = f'virtualDoc("{uri}", "{spec}")'

        def materialized():
            copy = Engine()
            store, _ = materialize_to_store(engine.virtual(uri, spec), uri="copy.xml")
            copy.attach("copy.xml", store)
            for text in texts:
                copy.execute(text.replace(source, 'doc("copy.xml")')).to_xml()

        _, span = spans.call("materialize_to_store", f"materialize:{uri}:{spec}", None, materialized)
        ratios.append(span.ms / virtual_ms)
    rows.add("transform.materialize_over_virtual", median(ratios), len(ratios))
