"""End-to-end serving smoke: a real ``repro serve`` subprocess with
replicas, driven by concurrent clients.

Part of the CI serving job: it proves the CLI wiring (flags →
``build_serving`` → ``serve_async``, with no ``--async`` needed to reach
it), that concurrent traffic answers correctly through the replica read
path, that the admission and replication metrics — shed counters and
per-replica lag — are exposed over HTTP, and that SIGTERM drains.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def served():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--replicas", "2", "--books", "20", "--port", "0",
            "--max-inflight", "8", "--query-budget", "1000000",
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
        remainder, _ = process.communicate(timeout=10)
    assert process.returncode == 0 and "draining" in remainder


def _query(base: str, text: str) -> tuple[int, str]:
    request = urllib.request.Request(
        f"{base}/query?values=1", data=text.encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def test_async_cli_serves_concurrent_clients_and_exposes_metrics(served):
    # A concurrent burst: every request either answers (200, served by
    # the primary or a caught-up replica) or sheds cleanly (429).
    with ThreadPoolExecutor(max_workers=16) as pool:
        outcomes = list(
            pool.map(
                lambda _: _query(served, 'count(doc("book.xml")//book)'),
                range(32),
            )
        )
    assert {status for status, _ in outcomes} <= {200, 429}
    served_ok = [body for status, body in outcomes if status == 200]
    assert served_ok and all(body == "20" for body in served_ok)

    # One write ships through the replica stream.
    update = json.dumps(
        {"op": "insert", "parent": "1", "fragment": "<book><title>S</title></book>"}
    )
    request = urllib.request.Request(
        f"{served}/update", data=update.encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert json.loads(response.read())["minted"]

    # Shed + lag metrics are exposed: the JSON /metrics carries the
    # admission snapshot (shed counter) and per-replica lag.
    with urllib.request.urlopen(f"{served}/metrics", timeout=10) as response:
        snapshot = json.loads(response.read())
    assert snapshot["admission"]["admitted"] >= len(served_ok)
    assert "shed" in snapshot["admission"]
    assert snapshot["replication"][0]["shipped"] == 1
    for replica in snapshot["replication"][0]["replicas"]:
        assert replica["lag"] >= 0

    with urllib.request.urlopen(f"{served}/healthz", timeout=10) as response:
        assert json.loads(response.read())["replicas"] == 2

    # /replication reports the same through the dedicated route.
    with urllib.request.urlopen(f"{served}/replication", timeout=10) as response:
        report = json.loads(response.read())
    assert report["max_lag"] <= 1  # at most the one unshipped-to-reader op

    # The server still answers after the burst, the write, and the
    # scrapes — and replica reads observe the shipped insert.
    for _ in range(2):  # round-robins both replicas
        status, body = _query(served, "count(doc('book.xml')//book)")
        assert (status, body) == (200, "21")
