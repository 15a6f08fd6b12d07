"""End-to-end observability smoke: a real ``repro serve`` process.

Starts the CLI server as a subprocess, drives one query and one update
through HTTP, then scrapes ``/metrics`` in both formats and
``/debug/traces`` — validating the Prometheus text with a tiny in-test
parser (no dependencies).  Part of the CI serving job.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``name{labels} value`` — the shape of every non-comment exposition line.
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[0-9.e+-]+|\+Inf|NaN)$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')

#: ``# exemplar <name> {trace_id="<16 hex>"} <value>`` — the comment line
#: a histogram's latest sampled trace id rides on (0.0.4-parser-safe).
_EXEMPLAR = re.compile(
    r"^# exemplar (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r'\{trace_id="[0-9a-f]{16}"\} (?:[0-9.e+-]+|\+Inf|NaN)$'
)


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Validate and parse exposition text; raises AssertionError on any
    malformed line (the smoke test's fail condition)."""
    samples: dict[str, list[tuple[dict, float]]] = {}
    typed: set[str] = set()
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) > 1 and parts[1] == "exemplar":
                match = _EXEMPLAR.match(line)
                assert match, f"malformed exemplar line: {line!r}"
                assert match.group("name") in typed, (
                    f"exemplar for untyped metric: {line!r}"
                )
                continue
            assert parts[0] == "# TYPE".split()[0] and parts[1] == "TYPE", (
                f"unexpected comment line: {line!r}"
            )
            assert parts[3] in ("counter", "gauge", "histogram"), line
            typed.add(parts[2])
            continue
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        labels: dict = {}
        if match.group("labels"):
            for pair in match.group("labels")[1:-1].split(","):
                assert _LABEL.match(pair), f"malformed label in {line!r}"
                key, _, value = pair.partition("=")
                labels[key] = value[1:-1]
        value = match.group("value")
        number = float("inf") if value == "+Inf" else float(value)
        samples.setdefault(match.group("name"), []).append((labels, number))
    for name in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert base in typed or name in typed, f"{name} has no # TYPE line"
    return samples


@pytest.fixture
def served():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--books", "20", "--port", "0", "--trace-sample", "1.0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        banner = ""
        while time.monotonic() < deadline:
            banner = process.stdout.readline()
            if banner.startswith("serving (async) on http://"):
                break
            assert process.poll() is None, f"server died: {banner}"
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        yield f"http://{match.group(1)}:{match.group(2)}"
    finally:
        process.terminate()
        process.wait(timeout=10)


def _get(url: str, accept: str | None = None) -> tuple[str, str]:
    request = urllib.request.Request(url)
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8"), response.headers["Content-Type"]


def _post(url: str, body: str) -> str:
    request = urllib.request.Request(
        url, data=body.encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8")


def test_serve_query_update_and_scrape(served):
    # Two queries and one update through the real HTTP front end.
    body = _post(f"{served}/query?values=1", 'count(doc("book.xml")//book)')
    assert body == "20"
    body = _post(f"{served}/query", 'doc("book.xml")//book[1]/title')
    assert body.startswith("<title>") and body.endswith("</title>")
    update = json.dumps(
        {"op": "insert", "parent": "1", "fragment": "<book><title>Smoke</title></book>"}
    )
    report = json.loads(_post(f"{served}/update", update))
    assert report["minted"]

    # JSON is still the default /metrics shape.
    body, content_type = _get(f"{served}/metrics")
    assert "application/json" in content_type
    snapshot = json.loads(body)
    assert snapshot["counters"]["service.queries"] >= 1
    assert snapshot["counters"]["service.updates_applied"] == 1

    # The Prometheus rendering parses cleanly and carries the same facts.
    body, content_type = _get(f"{served}/metrics", accept="text/plain")
    assert "text/plain; version=0.0.4" in content_type
    samples = parse_prometheus(body)
    assert samples["repro_service_queries"][0][1] >= 1
    assert samples["repro_service_updates_applied"][0][1] == 1
    assert any(
        labels.get("strategy") == "indexed"
        for labels, _ in samples["repro_engine_queries"]
    )
    buckets = [
        value
        for labels, value in samples["repro_engine_query_seconds_bucket"]
    ]
    assert buckets == sorted(buckets)

    # The tracer sampled the traffic.
    body, _ = _get(f"{served}/debug/traces")
    traces = json.loads(body)
    assert traces["counts"]["sampled"] >= 3
    # One tree per served request: serve.request > the hop > the work.
    # The update runs on a worker; both reads are evaluated inline, and
    # the element answer is written on a worker (where the work offloads).
    roots = [entry["root"] for entry in traces["recent"]]
    assert {root["name"] for root in roots} == {"serve.request"}

    def work(root, hop):
        return {
            child["name"]
            for span in root["children"] if span["name"] == hop
            for child in span["children"]
        }

    by_detail = {}
    for root in roots:
        by_detail.setdefault(root["detail"], []).append(root)
    [update] = by_detail["POST /update"]
    assert "update" in work(update, "serve.worker")
    count, element = by_detail["POST /query"]
    assert "query" in work(count, "serve.inline")
    assert not work(count, "serve.worker")
    assert "query" in work(element, "serve.inline")
    assert "result.to_xml" in work(element, "serve.worker")
