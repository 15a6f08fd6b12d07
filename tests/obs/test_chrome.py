"""The Chrome trace-event exporter: layout, lanes, metadata."""

from __future__ import annotations

import json

from repro.obs.chrome import chrome_trace_events, render_chrome
from repro.obs.trace import Tracer, fork, span


def _payload() -> dict:
    """A realistic stitched payload: root → child, and a forked lane with
    a span of its own, built through the real tracing substrate."""
    tracer = Tracer(sample_rate=1.0)
    with tracer.start("serve.request", detail="POST /query") as root:
        root.set("status", 200)
        with span("serve.admission"):
            pass
        with fork("shard.scatter", "shard=0"):
            with span("eval"):
                pass
    return tracer.recent()[0].to_dict()


def test_every_span_becomes_a_complete_event():
    payload = _payload()
    events = chrome_trace_events(payload)
    complete = [event for event in events if event["ph"] == "X"]
    names = [event["name"] for event in complete]
    assert names == ["serve.request", "serve.admission", "shard.scatter", "eval"]
    for event in complete:
        assert event["cat"] == "repro"
        assert event["dur"] >= 0
        assert event["args"]["trace_id"] == payload["trace_id"]
    root = complete[0]
    assert root["args"]["detail"] == "POST /query"
    assert root["args"]["status"] == 200


def test_forks_get_their_own_lanes():
    payload = _payload()
    events = chrome_trace_events(payload, pid=7, tid_start=3)
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    # In-task spans share the root's lane; the fork opens a new one and
    # its children stay on it.
    assert by_name["serve.request"]["tid"] == 3
    assert by_name["serve.admission"]["tid"] == 3
    assert by_name["shard.scatter"]["tid"] == 4
    assert by_name["eval"]["tid"] == 4
    assert by_name["eval"]["ts"] >= by_name["shard.scatter"]["ts"]
    assert {event["pid"] for event in events} == {7}


def test_process_metadata_events_name_each_pid_once():
    payload = _payload()
    events = chrome_trace_events(payload)
    meta = [event for event in events if event["ph"] == "M"]
    assert [event["name"] for event in meta] == ["process_name"]
    assert meta[0]["args"]["name"] == "coordinator"


def test_render_chrome_is_loadable_json_with_disjoint_lanes():
    payloads = [_payload(), _payload()]
    document = json.loads(render_chrome(payloads))
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    first = {e["tid"] for e in events if e["ph"] == "X"
             and e["args"]["trace_id"] == payloads[0]["trace_id"]}
    second = {e["tid"] for e in events if e["ph"] == "X"
              and e["args"]["trace_id"] == payloads[1]["trace_id"]}
    assert first and second and not (first & second)
