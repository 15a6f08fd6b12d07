"""Chrome trace-event export: stitched traces on a Perfetto timeline.

The ``/debug/traces`` JSON is a span *tree* — good for profiles, bad for
eyeballing concurrency.  This module flattens a stitched trace into the
Chrome trace-event format (the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly), so the
fan-out a served query actually exercised — admission wait on the event
loop, the worker-pool offload, per-shard scatter threads, replica reads
— renders as parallel tracks:

* every span becomes a complete event (``ph: "X"``, microsecond
  ``ts``/``dur``), laid out by the ``start_ms`` offsets the span tree
  carries;
* scatter fragments (:func:`repro.obs.trace.fork`) each get their own
  ``tid`` so concurrent shard work shows as separate rows instead of
  nesting nonsense;
* span attributes, storage deltas, and the trace id ride along in
  ``args`` for the Perfetto detail pane.

Everything here consumes the plain-dict ``Trace.to_dict()`` payloads, so
the exporter works identically on live ring-buffer traces and on JSON
fetched from a remote ``/debug/traces``.
"""

from __future__ import annotations

import json


def chrome_trace_events(payload: dict, pid: int = 0, tid_start: int = 0) -> list[dict]:
    """Flatten one ``Trace.to_dict()`` payload into trace events.

    ``pid`` labels the coordinator process; ``tid_start`` is the first
    thread id to allocate, so several traces can share one export without
    their rows colliding.
    """
    events: list[dict] = [{
        "ph": "M", "name": "process_name",
        "pid": pid, "tid": tid_start, "args": {"name": "coordinator"},
    }]
    next_tid = [tid_start]
    trace_hex = payload.get("trace_id", "")
    base_us = float(payload.get("started_at", 0.0)) * 1e6

    def walk(node: dict, tid: int) -> None:
        attrs = node.get("attrs") or {}
        if attrs.get("fork"):
            next_tid[0] += 1
            tid = next_tid[0]
        start_us = base_us + float(node.get("start_ms", 0.0)) * 1e3
        args: dict = {}
        if node.get("detail"):
            args["detail"] = node["detail"]
        if attrs:
            args.update(attrs)
        if node.get("storage"):
            args["storage"] = node["storage"]
        if trace_hex:
            args["trace_id"] = trace_hex
        events.append({
            "name": node.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": round(start_us, 3),
            "dur": round(float(node.get("duration_ms", 0.0)) * 1e3, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        for child in node.get("children", ()):
            walk(child, tid)

    walk(payload["root"], tid_start)
    return events


def render_chrome(payloads: list[dict], pid: int = 0) -> str:
    """Render ``Trace.to_dict()`` payloads as a Chrome trace JSON
    document.  Each trace starts on a fresh thread row so concurrent
    requests do not interleave on one track."""
    events: list[dict] = []
    tid_start = 0
    for payload in payloads:
        batch = chrome_trace_events(payload, pid=pid, tid_start=tid_start)
        events.extend(batch)
        tid_start = 1 + max(
            (event["tid"] for event in batch if event["ph"] != "M"),
            default=tid_start,
        )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, indent=1, sort_keys=True
    )
