"""``durable_mix`` — updates beside reads.

One in-process ``QueryService(pool_size=2)`` on a ``DurableStore`` of a
books document.  Cycles of seeded updates (5 ``ReplaceText`` : 3
``InsertSubtree``, every other one careted ``before`` a sibling : 2
``DeleteSubtree``), each followed by 4 reads (2 virtual, 2 stored, all
over the updated types); a ``checkpoint`` part-way; then the store
directory is byte-copied without ``close()`` — every ack followed an
fsync, so the copy is exactly the flushed state — and a fresh service
``open_durable``\\ s the copy, replaying the WAL tail.  A cache, column or
codec change that speeds reads can cost invalidation, rebuild or
succinct-to-raw fallback on the write side; this workload shows it, and
carries the durability check.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro.query.engine import Engine
from repro.service import QueryService
from repro.storage.persist import load_store
from repro.updates.durable import DurableStore
from repro.xmlmodel.parser import parse_document

import layers
from inputs import (
    AUTHOR_NAMES, BOOK_SPEC, SIZES, BookModel, book_reads, predicted, update_kinds,
)
from ledger import Rows, Samples, SpanLog, median, peak_rss_mb, percentile, timed, undisturbed

SIZE = SIZES["durable_mix"]
URI = "book.xml"


@dataclass
class State:
    seed: int
    workdir: str
    directory: str
    model: BookModel
    service: QueryService
    durable: DurableStore
    rng: random.Random
    kinds: object
    generate_s: float
    ops_log: list = field(default_factory=list)
    cycles: int = 0
    ops: int = 0
    failed: int = 0
    samples: Samples = field(default_factory=Samples)
    replayed: int = 0
    wal_bytes_per_op: list = field(default_factory=list)
    stored_bytes: int = 0
    # traced runs only
    apply_ms: list = field(default_factory=list)
    fsync_ms: list = field(default_factory=list)
    publish_ms: list = field(default_factory=list)
    durable_apply_ms: float = 0.0
    image_open_s: list = field(default_factory=list)


def setup(seed: int, workdir: str) -> State:
    model, ms = timed(BookModel, URI, SIZE["books"], seed)
    directory = os.path.join(workdir, "durable")
    shutil.rmtree(directory, ignore_errors=True)
    service = QueryService(pool_size=2)
    durable = DurableStore.create(directory, parse_document(model.xml, URI))
    service.adopt_durable(durable)
    for query in book_reads(URI, AUTHOR_NAMES[0]):  # warm: view, columns, CAS
        service.execute(query.text).to_xml()
    rng = random.Random(seed)
    return State(seed, workdir, directory, model, service, durable, rng, update_kinds(rng), ms / 1e3)


def teardown(state: State) -> None:
    state.durable.close()
    shutil.rmtree(state.directory, ignore_errors=True)


def _reads(state: State, service, name: str, mode=None) -> list[str]:
    return [service.execute(query.text, mode=mode).to_xml() for query in book_reads(URI, name)]


def _cycle(state: State, ladder=None, spans=None) -> None:
    service, model, rng = state.service, state.model, state.rng
    engine = Engine(stats=service.stats) if ladder is not None else None
    for step in range(1, SIZE["updates_per_cycle"] + 1):
        kind = next(state.kinds)
        op = model.next_op(rng, kind)
        state.ops_log.append(op.to_json())
        wal_before = state.durable.wal_size
        if ladder is not None:
            result, span = spans.call("QueryService.update", f"update:{state.ops}", None,
                                      service.update, URI, op)
            ms = span.ms
            # QueryService.update = DurableStore.apply (apply_op + WAL
            # append) + publish; trace() times DurableStore.apply.
            state.fsync_ms.append(state.durable.last_fsync_s * 1e3)
            state.apply_ms.append(state.durable_apply_ms - state.fsync_ms[-1])
            state.publish_ms.append(ms - state.durable_apply_ms)
            engine.attach(URI, result.store)
        else:
            result, ms = timed(service.update, URI, op)
        state.samples.add("update", kind, ms)
        state.wal_bytes_per_op.append(state.durable.wal_size - wal_before)
        model.applied(result.minted)
        name = rng.choice(AUTHOR_NAMES)
        reads = book_reads(URI, name)
        if ladder is not None:
            # The first read after an update pays the view rebuild, so the
            # bare and the spanned top rung take alternate steps.
            layers.query_ladder(service.execute, engine, reads, ladder, spans,
                                top_name="QueryService.execute+to_xml", spanned=step % 2 == 1)
        for query in reads:
            text, ms = timed(lambda: service.execute(query.text).to_xml())
            state.failed += text != predicted(model, query, name)
            if ladder is None:
                state.samples.add(query.kind, query.name, ms)
        state.ops += 1 + len(reads)
        if step == SIZE["checkpoint_after"]:
            state.samples.add("other", "checkpoint", timed(service.checkpoint, URI)[1])
            state.ops += 1
    _crash_and_recover(state, traced=ladder is not None)
    state.cycles += 1


def _crash_and_recover(state: State, traced: bool) -> None:
    """Copy the directory as a crash would leave it, recover the copy in a
    fresh service, and require it to answer exactly as the live one, with
    every acknowledged update visible (the model's titles, in order)."""
    name = state.rng.choice(AUTHOR_NAMES)
    live = _reads(state, state.service, name)
    oracle = _reads(state, state.service, name, mode="tree")  # untimed oracle check
    state.failed += live != oracle
    if not state.cycles:  # after a fixed op sequence, so the same on every run of a seed
        state.stored_bytes = sum(
            os.path.getsize(os.path.join(state.directory, entry))
            for entry in os.listdir(state.directory)
        )
    copy = os.path.join(state.workdir, "crash-copy")
    shutil.copytree(state.directory, copy)
    fresh = QueryService(pool_size=2)
    recovered, ms = timed(fresh.open_durable, copy)
    try:
        state.samples.add("other", "recovery", ms)
        state.replayed += recovered.recovery.replayed
        state.failed += _reads(state, fresh, name) != live
        titles = fresh.execute(f'doc("{URI}")//book/title/text()').values()
        state.failed += titles != state.model.titles()
        state.ops += 1
        if traced:  # recovery = image open + replay; time the open alone
            state.image_open_s.append(timed(load_store, os.path.join(copy, "image.vpbn"))[1] / 1e3)
    finally:
        recovered.close()
        shutil.rmtree(copy)


def _outcome(state: State, rows: Rows) -> dict:
    updates = state.samples.profile("update")
    rows.add("update_p50_ms", percentile(updates, 0.5), len(updates))
    rows.add("update_p90_ms", percentile(updates, 0.9), len(updates))
    rows.add("recovery_s", state.samples.latencies("other")["other", "recovery"] / 1e3, state.cycles)
    rows.add("stored_bytes_per_user_byte", state.stored_bytes / len(state.model.xml.encode("utf-8")))
    return {"ops": state.ops, "failed": state.failed}


def op_sequence(seed: int, workdir: str) -> list:
    """One cycle's updates as the WAL logs them (an insert's position
    depends on the numbers the program minted, so the cycle is run)."""
    state = setup(seed, workdir)
    try:
        _cycle(state)
    finally:
        teardown(state)
    return state.ops_log


def run(state: State, seconds: float, rows: Rows) -> dict:
    deadline = time.perf_counter() + seconds
    while state.cycles < 2 or time.perf_counter() < deadline:
        _cycle(state)
    return dict(_outcome(state, rows), samples=state.samples, rss_mb=peak_rss_mb())


def trace(state: State, seconds: float, rows: Rows, spans: SpanLog) -> dict:
    service = state.service
    rows.add("workloads.generate_s", state.generate_s)
    ladder = layers.query_samples()
    apply = state.durable.apply

    def spanned_apply(op):
        result, span = spans.call("DurableStore.apply", f"update:{state.ops}", None, apply, op)
        state.durable_apply_ms = span.ms
        return result

    state.durable.apply = spanned_apply  # the service calls it through the instance
    deadline = time.perf_counter() + seconds
    while state.cycles < 2 or time.perf_counter() < deadline:
        _cycle(state, ladder, spans)
    # The rungs below the top replay the service's reads on a plain
    # engine: what is left is the pool checkout, the cache lookups and
    # the metrics the service adds.
    layers.ladder_metrics(ladder, rows, plan_cached=True)
    rows.add("service.execute_overhead_ms", rows.value("rung.self_ms"), ladder["top"].count())
    outcome = _outcome(state, rows)
    store = service.store(URI)
    snapshot = service.snapshot()
    rows.add("service.plan_cache_hit_share", snapshot["caches"]["plan"]["hit_rate"])
    rows.add("service.view_cache_hit_share", snapshot["caches"]["view"]["hit_rate"])
    updates = state.samples.count("update")
    rows.add("service.view_evictions_per_update",
             snapshot["counters"].get("cache.view.update_evictions", 0) / updates, updates)
    rows.add("updates.apply_ms", undisturbed(state.apply_ms), updates)
    rows.add("updates.wal_append_ms", undisturbed(state.fsync_ms), updates)
    rows.add("updates.publish_ms", undisturbed(state.publish_ms), updates)
    other = state.samples.latencies("other")
    rows.add("updates.checkpoint_s", other["other", "checkpoint"] / 1e3, state.cycles)
    rows.add("updates.replay_ms_per_record",
             (other["other", "recovery"] - undisturbed(state.image_open_s) * 1e3)
             / (state.replayed / state.cycles), state.replayed)
    rows.add("updates.wal_bytes_per_op", median(state.wal_bytes_per_op), updates)
    fresh = layers.load_ladder({URI: state.model.xml}, rows, spans)
    rows.add("pbn.column_bytes_per_node", layers.column_footprint(fresh))
    engine = Engine(stats=service.stats)
    engine.attach(URI, store)
    layers.view_ladder(engine, [(URI, BOOK_SPEC)], rows, spans)
    layers.cost_counts(engine, book_reads(URI, AUTHOR_NAMES[0]), rows)
    layers.pbn_probes(engine, URI, BOOK_SPEC, state.seed, rows)
    layers.image_probe({URI: store}, state.workdir, rows, spans)
    return outcome
