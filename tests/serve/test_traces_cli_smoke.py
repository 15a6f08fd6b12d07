"""End-to-end smoke for ``repro traces``: a real sharded+replicated
``repro serve`` subprocess, one traced scatter query, then the
CLI fetching the ring buffer in every format.

Proves the full distributed-tracing loop through real process
boundaries: the served request returns its trace id in ``X-Trace-Id``,
``--trace-id`` fetches exactly that stitched trace, and
``--format=chrome`` renders trace-event JSON that chrome://tracing and
Perfetto can load.
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
DOCS = 8


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _union_count() -> str:
    union = " | ".join(f'doc("doc{i}.xml")//title' for i in range(DOCS))
    return f"count({union})"


@pytest.fixture
def served(tmp_path):
    flags = []
    for i in range(DOCS):
        path = tmp_path / f"doc{i}.xml"
        path.write_text(f"<book id='{i}'><title>T{i}</title></book>")
        flags += ["-d", f"doc{i}.xml={path}"]
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            # --async is a hidden no-op the benchmark still passes; this
            # is the test that it stays accepted.
            "--async", "--shards", "4", "--replicas", "2",
            "--port", "0", "--trace-sample", "1.0", *flags,
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        banner = ""
        while time.monotonic() < deadline:
            banner = process.stdout.readline()
            if "serving (async) on http://" in banner:
                break
            assert process.poll() is None, f"server died: {banner}"
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        yield f"http://{match.group(1)}:{match.group(2)}"
    finally:
        process.terminate()
        process.wait(timeout=10)


def _traces_cli(base: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "traces", "--url", base, *flags],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_traces_cli_text_json_and_chrome(served):
    request = urllib.request.Request(
        f"{served}/query?values=1",
        data=_union_count().encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.read() == str(DOCS).encode("utf-8")
        trace_id = response.headers["X-Trace-Id"]
    assert re.fullmatch(r"[0-9a-f]{16}", trace_id)

    # Text rendering mentions the request root and the scatter hops.
    result = _traces_cli(served)
    assert result.returncode == 0, result.stderr
    assert "serve.request" in result.stdout
    assert "shard.scatter" in result.stdout

    # --trace-id narrows --format=json to exactly the served trace.
    result = _traces_cli(served, "--trace-id", trace_id, "--format", "json")
    assert result.returncode == 0, result.stderr
    traces = json.loads(result.stdout)
    assert [t["trace_id"] for t in traces] == [trace_id]

    # An unknown id fails loudly instead of printing an empty report.
    result = _traces_cli(served, "--trace-id", "0" * 16)
    assert result.returncode == 1
    assert "no recent trace" in result.stderr

    # Chrome export: loadable trace-event JSON covering every hop of the
    # stitched tree, with scatter fans on their own lanes (distinct tids).
    result = _traces_cli(served, "--trace-id", trace_id, "--format", "chrome")
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout)
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    names = {event["name"] for event in complete}
    assert {"serve.request", "serve.admission", "serve.worker",
            "shard.scatter"} <= names
    for event in complete:
        assert event["dur"] >= 0
        assert event["args"]["trace_id"] == trace_id
    scatter = [event for event in complete if event["name"] == "shard.scatter"]
    assert len(scatter) >= 2  # the union fans out across shards
    assert len({event["tid"] for event in scatter}) == len(scatter)
