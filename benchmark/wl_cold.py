"""``cold_open`` — preprocessing.

Cycles of: fresh ``Engine``, ``Engine.load`` x3, each of the 26 paired
queries for the first time on that engine, ``Engine.save`` x3, fresh
``Engine``, ``Engine.open`` x3, one check query on the reopened images.
Every CLI call, new view and post-update read pays this path: parse,
numbering, DataGuide, store build, vDataGuide resolve, Algorithm 1 and
the lazy column / codec / CAS builds.  Warm kernels do little here, so
work an ``embedded_read`` optimisation moves into set-up shows as a loss.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.query.engine import Engine

import layers
from inputs import SIZES, paired_queries, three_documents
from ledger import Rows, Samples, SpanLog, digest, peak_rss_mb, timed
from wl_embedded import load_collection, load_engine

SIZE = SIZES["cold_open"]


@dataclass
class State:
    seed: int
    workdir: str
    xml: dict
    queries: list
    expected: dict
    generate_s: float
    cycles: int = 0
    failed: int = 0
    samples: Samples = field(default_factory=Samples)
    image_bytes: int = 0


def setup(seed: int, workdir: str) -> State:
    xml, _, queries, expected, generate_s = load_collection(SIZE, seed)
    return State(seed, workdir, xml, queries, expected, generate_s)


def teardown(state: State) -> None:
    pass


def _cycle(state: State, ladder=None, spans=None) -> None:
    """One load / first-use / save / reopen cycle: the 26 queries plus a
    load, a save and an open of the whole collection and a check query.
    With ``ladder`` and ``spans`` the first-use queries run as a ladder:
    the top rung on the cycle's engine, the rungs below it on a second
    fresh engine."""
    engine, ms = timed(load_engine, state.xml)
    state.samples.add("other", "load", ms)
    if ladder is None:
        for query in state.queries:
            text, ms = timed(lambda: engine.execute(query.text).to_xml())
            state.failed += digest(text) != state.expected[query]
            state.samples.add(query.kind, query.name, ms)
    else:
        layers.query_ladder(engine.execute, load_engine(state.xml), state.queries, ladder, spans,
                            spanned=state.cycles % 2 == 1)
    paths = {uri: os.path.join(state.workdir, f"{uri}.vpbn") for uri in state.xml}
    state.image_bytes, ms = timed(lambda: sum(engine.save(uri, path) for uri, path in paths.items()))
    state.samples.add("other", "save", ms)
    reopened = Engine()
    _, ms = timed(lambda: [reopened.open(path) for path in paths.values()])
    state.samples.add("other", "open", ms)
    check = state.queries[state.cycles % len(state.queries)]
    state.failed += digest(reopened.execute(check.text).to_xml()) != state.expected[check]
    for path in paths.values():
        os.remove(path)
    state.cycles += 1


def _outcome(state: State, rows: Rows) -> dict:
    latency = state.samples.latencies("other")
    megabytes = sum(len(text.encode("utf-8")) for text in state.xml.values()) / 1e6
    rows.add("load_mb_s", megabytes / (latency["other", "load"] / 1e3), state.cycles)
    rows.add("reopen_mb_s", megabytes / (latency["other", "open"] / 1e3), state.cycles)
    rows.add("stored_bytes_per_user_byte", state.image_bytes / (megabytes * 1e6))
    return {"ops": state.cycles * (len(state.queries) + 4), "failed": state.failed}


def op_sequence(seed: int, workdir: str) -> list:
    """The generated inputs and one cycle's queries (their order is fixed:
    each query's first use must find the same lazy state every cycle)."""
    return [digest(text) for text in three_documents(SIZE, seed).values()] + [
        query.text for query in paired_queries()
    ]


def run(state: State, seconds: float, rows: Rows) -> dict:
    deadline = time.perf_counter() + seconds
    while state.cycles < 3 or time.perf_counter() < deadline:
        _cycle(state)
    return dict(_outcome(state, rows), samples=state.samples, rss_mb=peak_rss_mb())


def trace(state: State, seconds: float, rows: Rows, spans: SpanLog) -> dict:
    rows.add("workloads.generate_s", state.generate_s)
    ladder = layers.query_samples()
    deadline = time.perf_counter() + seconds
    while state.cycles < 4 or time.perf_counter() < deadline:
        _cycle(state, ladder, spans)
    layers.ladder_metrics(ladder, rows)
    outcome = _outcome(state, rows)
    layers.load_ladder(state.xml, rows, spans)
    engine = load_engine(state.xml)
    views = sorted({(q.uri, q.spec) for q in state.queries if q.kind == "virtual"})
    layers.view_ladder(engine, views, rows, spans)
    layers.cost_counts(engine, state.queries, rows)
    stores = {uri: engine.store(uri) for uri in engine.uris()}
    layers.pbn_probes(engine, "book.xml", state.queries[0].spec, state.seed, rows)
    rows.add("pbn.column_bytes_per_node", rows.value("pbn.column_bytes_per_node_after_updates"))
    layers.image_probe(stores, state.workdir, rows, spans)
    return outcome
