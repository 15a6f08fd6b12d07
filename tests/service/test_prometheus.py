"""Prometheus exposition: the renderer, and what the serving tier adds
to it.  (``/metrics`` content negotiation over HTTP is part of the route
contract, ``tests/serve/test_routes.py``.)"""

from __future__ import annotations

import asyncio

from repro.obs.prometheus import (
    escape_label_value,
    format_labels,
    metric_name,
    render_prometheus,
)
from repro.service import QueryService
from repro.service.metrics import ServiceMetrics
from repro.shard import ShardedService
from repro.workloads.books import books_document


# -- pure renderer --------------------------------------------------------


def test_metric_name_mapping():
    assert metric_name("engine.query_seconds") == "repro_engine_query_seconds"
    assert metric_name("cache.plan.hits") == "repro_cache_plan_hits"
    assert metric_name("weird-name!", prefix="") == "weird_name_"
    assert metric_name("9lives", prefix="") == "_9lives"


def test_label_value_escaping():
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("line\nbreak") == "line\\nbreak"
    # Backslash first, so escaping is not applied to its own output.
    assert escape_label_value('\\"') == '\\\\\\"'
    assert format_labels({}) == ""
    assert format_labels({"b": "2", "a": "1"}) == '{a="1",b="2"}'


def test_counters_render_with_type_lines_and_labels():
    metrics = ServiceMetrics()
    metrics.incr("engine.queries", 3)
    metrics.incr("engine.queries", labels={"strategy": "virtual"})
    metrics.incr("engine.queries", 2, labels={"strategy": 'in"dexed'})
    text = render_prometheus(metrics)
    lines = text.splitlines()
    assert "# TYPE repro_engine_queries counter" in lines
    assert "repro_engine_queries 3" in lines
    assert 'repro_engine_queries{strategy="virtual"} 1' in lines
    assert 'repro_engine_queries{strategy="in\\"dexed"} 2' in lines
    # One TYPE line per metric name, even with several labeled series.
    assert lines.count("# TYPE repro_engine_queries counter") == 1
    assert text.endswith("\n")


def test_cas_counters_render_beside_the_query_counters():
    # The context items each kernel took, and why the scalar loop got the
    # rest, expose as one labeled counter family, escaped and typed like
    # engine.queries next to it.
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(6, seed=9))
    service.execute('doc("book.xml")//name[. >= "M"]')  # compilable: hit
    service.execute('doc("book.xml")//book[count(author) >= 1]')  # decline
    text = render_prometheus(service.metrics)
    lines = text.splitlines()
    assert lines.count("# TYPE repro_engine_kernel counter") == 1
    assert 'repro_engine_kernel{kernel="cas"} 1' in lines
    assert (
        'repro_engine_kernel{kernel="scalar",reason="predicate-shape"} 1' in lines
    )
    # Same exposition carries the plain query counter family.
    assert "# TYPE repro_engine_queries counter" in lines


def test_histogram_buckets_are_cumulative_and_monotone():
    metrics = ServiceMetrics()
    for seconds in (0.5e-6, 3e-6, 3.5e-6, 0.002, 1.5):
        metrics.observe("engine.query_seconds", seconds)
    text = render_prometheus(metrics)
    buckets = []
    for line in text.splitlines():
        if line.startswith("repro_engine_query_seconds_bucket"):
            buckets.append(int(line.rsplit(" ", 1)[1]))
    assert buckets, "no bucket series rendered"
    assert buckets == sorted(buckets)  # cumulative counts never decrease
    assert buckets[-1] == 5  # the +Inf bucket equals _count
    assert "repro_engine_query_seconds_count 5" in text
    assert 'le="+Inf"' in text


def test_storage_and_gauges_sections():
    metrics = ServiceMetrics()
    service = QueryService(pool_size=1)
    service.load("book.xml", books_document(5, seed=3))
    service.execute('doc("book.xml")//title')
    text = render_prometheus(
        metrics, storage=service.stats, extra_gauges={"cache.plan.entries": 1}
    )
    assert "# TYPE repro_storage_page_reads counter" in text
    assert "# TYPE repro_cache_plan_entries gauge" in text
    assert "repro_cache_plan_entries 1.0" in text


def test_labeled_gauge_families_render_one_line_per_row():
    metrics = ServiceMetrics()
    rows = [
        ({"set": "shard0", "replica": "0"}, 2),
        ({"set": "shard0", "replica": "1"}, 0),
        ({"set": 'we"ird', "replica": "0"}, 5),
    ]
    text = render_prometheus(
        metrics, extra_gauges={"serve.replica.lag_ops": rows}
    )
    lines = text.splitlines()
    # One TYPE line for the family, one sample line per (labels, value)
    # pair, labels sorted and escaped like any other series.
    assert lines.count("# TYPE repro_serve_replica_lag_ops gauge") == 1
    assert 'repro_serve_replica_lag_ops{replica="0",set="shard0"} 2.0' in lines
    assert 'repro_serve_replica_lag_ops{replica="1",set="shard0"} 0.0' in lines
    assert (
        'repro_serve_replica_lag_ops{replica="0",set="we\\"ird"} 5.0' in lines
    )


def test_histogram_exemplar_renders_as_a_skippable_comment():
    metrics = ServiceMetrics()
    metrics.observe("engine.query_seconds", 0.25)
    metrics.observe("engine.query_seconds", 0.005, exemplar="263f34eaf56040d7")
    lines = render_prometheus(metrics).splitlines()
    exemplars = [line for line in lines if line.startswith("# exemplar")]
    # Only the latest sampled observation is kept, as a comment line that
    # any 0.0.4 parser skips but links the histogram to /debug/traces.
    assert exemplars == [
        '# exemplar repro_engine_query_seconds {trace_id="263f34eaf56040d7"}'
        " 0.005"
    ]
    # It trails its own histogram block, not some other family's.
    assert lines[lines.index(exemplars[0]) - 1] == (
        "repro_engine_query_seconds_count 2"
    )


def test_exemplar_trace_ids_are_label_escaped():
    metrics = ServiceMetrics()
    metrics.observe("engine.query_seconds", 0.5, exemplar='evil"\nid')
    text = render_prometheus(metrics)
    assert (
        '# exemplar repro_engine_query_seconds {trace_id="evil\\"\\nid"} 0.5'
        in text.splitlines()
    )


def test_unsampled_histograms_render_no_exemplar():
    metrics = ServiceMetrics()
    metrics.observe("engine.query_seconds", 0.25)
    assert "# exemplar" not in render_prometheus(metrics)


# -- the served exposition: serving-tier gauges and exemplars --------------


def test_serving_gauges_and_exemplars_reach_the_exposition():
    from repro.serve.app import build_serving

    service = ShardedService(shards=1, pool_size=1, trace_sample=1.0)
    service.load("book.xml", books_document(10, seed=11))
    app = build_serving(service, replicas=2, max_inflight=4, queue_limit=8)
    try:

        async def query_then_scrape():
            response = await app.handle(
                "POST",
                "/query",
                {"values": "1"},
                {},
                b'count(doc("book.xml")//book)',
            )
            assert response.status == 200
            scrape = await app.handle(
                "GET", "/metrics", {}, {"accept": "text/plain"}, b""
            )
            assert scrape.status == 200
            return response.headers["X-Trace-Id"], scrape.body.decode("utf-8")

        trace_id, body = asyncio.run(query_then_scrape())
    finally:
        app.close()
    lines = body.splitlines()
    # The admission controller's instantaneous state, as proper gauges.
    for name in (
        "repro_serve_inflight",
        "repro_serve_queue_depth",
        "repro_serve_slots_free",
        "repro_serve_queue_capacity",
    ):
        assert f"# TYPE {name} gauge" in lines
    assert "repro_serve_queue_capacity 8.0" in lines
    assert "repro_serve_slots_free 4.0" in lines
    # The replica-lag family: one labeled row per replica, one TYPE line.
    assert lines.count("# TYPE repro_serve_replica_lag_ops gauge") == 1
    rows = [
        line for line in lines
        if line.startswith("repro_serve_replica_lag_ops{")
    ]
    assert len(rows) == 2
    assert any('replica="0"' in row for row in rows)
    assert any('replica="1"' in row for row in rows)
    assert "# TYPE repro_serve_replica_apply_age_seconds gauge" in lines
    # The latency histogram links back to the served request's trace.
    assert (
        f'# exemplar repro_serve_latency_seconds {{trace_id="{trace_id}"}}'
        in body
    )
