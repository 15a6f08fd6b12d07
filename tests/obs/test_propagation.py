"""Context propagation across the hops that do not propagate themselves.

``contextvars`` carries the active span across ``await`` for free; every
other boundary needs an explicit hand-off, and each one has a test here:
``wrap`` for ``loop.run_in_executor`` offloads, ``fork`` for concurrent
scatter threads, the :class:`SpanContext` carrier for HTTP hops, and
``Tracer.start(parent=...)`` for the remote side of a carrier.
Each hand-off must also *not leak*: after the task — success or
exception — no active span may remain on the borrowed thread.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.trace import (
    MAX_SPANS,
    NOOP,
    SpanContext,
    Tracer,
    current_context,
    current_span,
    current_trace_id,
    fork,
    format_id,
    mint_id,
    span,
    wrap,
)


# -- ids and carriers --------------------------------------------------------


def test_ids_are_nonzero_64_bit_and_collision_free():
    ids = {mint_id() for _ in range(1000)}
    assert len(ids) == 1000
    assert all(0 < value < 2**64 for value in ids)
    assert format_id(0x1F) == "000000000000001f"


def test_carrier_header_round_trips():
    carrier = SpanContext(trace_id=mint_id(), span_id=mint_id(), sampled=True)
    header = carrier.to_header()
    assert header == (
        f"00-{carrier.trace_id:032x}-{carrier.span_id:016x}-01"
    )
    assert SpanContext.from_header(header) == carrier
    unsampled = carrier._replace(sampled=False)
    assert SpanContext.from_header(unsampled.to_header()) == unsampled


@pytest.mark.parametrize(
    "header",
    [
        None,
        "",
        "not-a-header",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # not hex
        "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
    ],
)
def test_malformed_carrier_headers_parse_to_none(header):
    assert SpanContext.from_header(header) is None


def test_current_context_is_the_open_span_not_the_root():
    assert current_context() is None
    assert current_trace_id() is None
    tracer = Tracer(sample_rate=1.0)
    with tracer.start("query") as root:
        outer = current_context()
        assert outer.span_id == root.span_id and outer.sampled
        with span("eval") as inner:
            assert current_context().span_id == inner.span_id
            assert current_context().trace_id == outer.trace_id
    [trace] = tracer.recent()
    assert current_trace_id() is None
    assert outer.trace_id == trace.trace_id
    assert trace.hex_id == format_id(outer.trace_id)


# -- Tracer.start(parent=...) — the remote side of a carrier ----------------


def test_parent_carrier_adopts_trace_id_and_records_remote_parent():
    tracer = Tracer(sample_rate=0.0)  # the carrier decides, not the sampler
    carrier = SpanContext(trace_id=mint_id(), span_id=mint_id(), sampled=True)
    with tracer.start("shard.worker", parent=carrier):
        assert current_trace_id() == format_id(carrier.trace_id)
    [trace] = tracer.recent()
    assert trace.trace_id == carrier.trace_id
    assert trace.parent_span_id == carrier.span_id
    assert trace.to_dict()["parent_span_id"] == format_id(carrier.span_id)
    # Adopted traces are the coordinator's sampling decision, so they do
    # not move this tracer's own admitted/sampled counters.
    assert tracer.counts() == {"admitted": 0, "sampled": 0}


def test_unsampled_parent_carrier_suppresses_the_whole_request():
    tracer = Tracer(sample_rate=1.0)  # even an eager sampler must defer
    carrier = SpanContext(trace_id=mint_id(), span_id=mint_id(), sampled=False)
    handle = tracer.start("shard.worker", parent=carrier)
    assert handle.trace is None
    with handle:
        assert current_span() is None
        assert current_context() is None  # no carrier flows downstream
        assert span("eval") is NOOP
        # A fork hands the *suppression* to the pool thread (a bare NOOP
        # would leave it undecided, and the shard's engine would sample).
        with fork("shard.scatter"):
            assert current_context() is None
            assert span("eval") is NOOP
        # Downstream samplers see "decided: no", not "undecided" — an
        # inner start records nothing instead of rolling its own dice.
        inner = tracer.start("query")
        assert inner.trace is None
        with inner:
            assert current_span() is None
    assert tracer.recent() == []
    assert current_span() is None  # token-paired reset on exit


# -- wrap: loop.run_in_executor offloads ------------------------------------


def test_wrap_carries_the_trace_into_an_executor_offload():
    tracer = Tracer(sample_rate=1.0)

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        with tracer.start("serve.request"):
            await asyncio.sleep(0)  # the span survives await
            assert current_span().name == "serve.request"
            with ThreadPoolExecutor(max_workers=1) as pool:
                await loop.run_in_executor(pool, wrap(_work, "serve.worker"))
                # The same pool thread, probed bare: no leaked context.
                leaked = await loop.run_in_executor(pool, current_span)
            assert leaked is None
            assert current_span().name == "serve.request"

    asyncio.run(serve())
    [trace] = tracer.recent()
    worker = trace.root.children[0]
    assert worker.name == "serve.worker"
    assert [child.name for child in worker.children] == ["eval"]


def _work() -> None:
    assert current_span().name == "serve.worker"
    with span("eval"):
        pass


def test_wrap_without_a_trace_is_a_plain_passthrough():
    called = []
    wrapped = wrap(lambda value: called.append(value) or value, "serve.worker")
    assert wrapped(7) == 7
    assert called == [7]


def test_wrap_resets_the_context_when_the_callable_raises():
    tracer = Tracer(sample_rate=1.0)
    with tracer.start("serve.request"):
        wrapped = wrap(_boom, "serve.worker")
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(RuntimeError):
                pool.submit(wrapped).result()
            assert pool.submit(current_span).result() is None
        assert current_span().name == "serve.request"


def _boom() -> None:
    raise RuntimeError("worker exploded")


# -- fork: concurrent scatter threads ---------------------------------------


def test_fork_parents_at_fan_out_and_activates_on_the_pool_thread():
    tracer = Tracer(sample_rate=1.0)

    def task(fragment, shard: int) -> None:
        with fragment as scatter_span:
            assert current_span() is scatter_span
            with span("eval", f"shard={shard}"):
                pass
        assert current_span() is None  # token-paired reset, no leak

    with tracer.start("scatter") as root:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(task, fork("shard.scatter", f"shard={shard}"), shard)
                for shard in range(4)
            ]
            for future in futures:
                future.result()
        # Parentage was decided at fan-out: all four under the root, in
        # submission order, regardless of completion order.
        assert [child.name for child in root.children] == ["shard.scatter"] * 4
        assert [child.detail for child in root.children] == [
            f"shard={shard}" for shard in range(4)
        ]
    [trace] = tracer.recent()
    for child in trace.root.children:
        assert child.attrs["fork"] is True
        assert [grand.name for grand in child.children] == ["eval"]


def test_fork_resets_the_context_when_the_task_raises():
    tracer = Tracer(sample_rate=1.0)

    def task(fragment) -> None:
        with fragment:
            raise RuntimeError("shard exploded")

    with tracer.start("scatter"):
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(RuntimeError):
                pool.submit(task, fork("shard.scatter")).result()
            assert pool.submit(current_span).result() is None


def test_fork_without_a_trace_is_noop():
    fragment = fork("shard.scatter")
    assert fragment is NOOP
    with fragment as scatter_span:
        scatter_span.add("anything")
    assert current_span() is None


def test_forks_share_the_trace_span_budget():
    tracer = Tracer(sample_rate=1.0)
    with tracer.start("scatter"):
        handles = [fork("shard.scatter") for _ in range(MAX_SPANS + 10)]
    noops = [handle for handle in handles if handle is NOOP]
    assert len(noops) == 11  # the root span counts against the budget too
    [trace] = tracer.recent()
    assert trace.dropped_spans == 11


# -- the whole chain, across an await and both hand-offs --------------------


def test_one_stitched_tree_across_await_executor_and_scatter():
    tracer = Tracer(sample_rate=1.0)

    def scatter() -> None:
        with span("scatter"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(_shard_task, fork("shard.scatter", f"shard={i}"))
                    for i in range(2)
                ]
                for future in futures:
                    future.result()

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        with tracer.start("serve.request"):
            with span("serve.admission"):
                await asyncio.sleep(0)
            with ThreadPoolExecutor(max_workers=1) as pool:
                await loop.run_in_executor(
                    pool, wrap(scatter, "serve.worker")
                )

    asyncio.run(serve())
    [trace] = tracer.recent()
    root = trace.root
    assert [c.name for c in root.children] == ["serve.admission", "serve.worker"]
    scatter_span = root.children[1].children[0]
    assert scatter_span.name == "scatter"
    assert [c.name for c in scatter_span.children] == ["shard.scatter"] * 2
    for shard_span in scatter_span.children:
        assert [c.name for c in shard_span.children] == ["replica.read"]


def _shard_task(fragment) -> None:
    with fragment:
        with span("replica.read"):
            pass
