"""Measurement plumbing shared by every workload: order statistics,
answer digests, op-class samples, the benchmark-side span log, and the
flat result rows.

Nothing here knows about a workload; the four ``wl_*`` modules and
``layers`` produce numbers, this module only holds and summarises them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The quantile of an op class's samples taken as its latency.  The host
#: is a shared VM whose hypervisor takes the CPU away for milliseconds to
#: seconds at a time (an identical pass takes 0.2-2 s depending on the
#: second it runs in).  Interference only ever adds time, so the lower
#: decile over the run's repeats of one op is that op's cost and the rest
#: of its distribution is the neighbours'.
UNDISTURBED = 0.10


def median(values) -> float:
    return percentile(values, 0.5)


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 for an empty list, so
    a layer a workload never crosses reports 0 rather than failing)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def timed(fn, *args, **kwargs):
    """``(result, milliseconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - started) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rows:
    """Flat result rows ``(workload, metric, value, unit, n)``.

    Named metrics take their unit from ``BENCHMARK.json``; anything else
    is a *detail* row (per-class latencies, rung medians) that appears in
    the result file but is not a gated metric.
    """

    UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []

    def add(self, metric: str, value: float, n: int = 1, unit: str = "") -> None:
        self.rows.append(
            {
                "workload": self.workload,
                "metric": metric,
                "value": float(value),
                "unit": self.UNITS.get(metric, unit),
                "n": n,
            }
        )

    def value(self, metric: str) -> float:
        return next(row["value"] for row in self.rows if row["metric"] == metric)

    def names(self) -> set[str]:
        return {row["metric"] for row in self.rows}

    def metrics(self, names) -> dict:
        """The driver-facing ``{name: {value, unit}}`` block for ``names``;
        a per-layer metric the workload never crosses reads 0 with n=0."""
        wanted = set(names)
        for name in wanted - self.names():
            self.add(name, 0.0, n=0)
        return {
            row["metric"]: {"value": row["value"], "unit": row["unit"]}
            for row in self.rows
            if row["metric"] in wanted
        }


def undisturbed(values) -> float:
    return percentile(values, UNDISTURBED)


class Samples:
    """Caller-side latencies (ms) of a run, by *op class*: the repeats of
    one op — one query of the suite, one kind of update, one load.  A
    class has a role: ``virtual`` / ``stored`` for the two members of a
    query pair, ``read`` for any other read, ``update``, or ``other``
    (load, save, checkpoint, recovery: ops of a round that are neither).
    A class's latency is the undisturbed one of its samples."""

    def __init__(self) -> None:
        self.by_class: dict = {}

    def add(self, role: str, name: str, ms: float) -> None:
        self.by_class.setdefault((role, name), []).append(ms)

    def merge(self, other: "Samples") -> None:
        for key, values in other.by_class.items():
            self.by_class.setdefault(key, []).extend(values)

    def count(self, *roles: str) -> int:
        return len(self.profile(*roles))

    def latencies(self, *roles: str) -> dict:
        """``{(role, name): latency}`` of the classes in ``roles`` (all
        classes without)."""
        return {
            key: undisturbed(values)
            for key, values in self.by_class.items()
            if not roles or key[0] in roles
        }

    def profile(self, *roles: str) -> list:
        """The latency distribution of the ops in ``roles``, each op at
        its class's latency."""
        return [
            latency
            for key, latency in self.latencies(*roles).items()
            for _ in self.by_class[key]
        ]


@dataclass
class Span:
    """One call into a layer, recorded from the benchmark's own call site
    (the program's internal ``repro.obs`` tracer stays off)."""

    id: int
    name: str
    op: str
    parent: int | None
    start_s: float
    end_s: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end_s - self.start_s) * 1e3


class SpanLog:
    """The traced run's spans, kept in memory and written out with the
    result file.  A span is also the traced run's stopwatch: rung times
    are read off the spans, nothing is timed twice."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def call(self, name: str, op: str, parent: Span | None, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, span)``."""
        span = Span(len(self.spans), name, op, parent.id if parent else None, time.perf_counter())
        self.spans.append(span)
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end_s = time.perf_counter()

    COLUMNS = ("name", "op", "parent", "start_s", "end_s")

    def to_rows(self) -> list[list]:
        """One row of :attr:`COLUMNS` per span; a span's id is its position."""
        return [
            [span.name, span.op, span.parent, round(span.start_s, 6), round(span.end_s, 6)]
            for span in self.spans
        ]


def end_to_end(rows: Rows, *, setup_s: float, samples: Samples, rss_mb: float,
               throughput_ops_s: float | None = None) -> None:
    """The six end-to-end metrics every workload reports, and each op
    class's latency as a detail row.

    Every timing is read off the class latencies (see :class:`Samples`):
    ``query_p50_ms`` / ``query_p95_ms`` are percentiles over the read ops
    with each at its class's latency, and ``virtual_over_stored`` is the
    summed latency of the virtual queries over that of their stored
    counterparts (pair members share a name and are equally frequent):
    the paper's vPBN-over-PBN factor.  ``throughput_ops_s`` of a single
    caller is the rate of the op mix at those latencies; a workload with
    several callers measures its own.
    """
    reads = samples.profile("virtual", "stored", "read")
    everything = samples.profile()
    if throughput_ops_s is None:
        throughput_ops_s = len(everything) / (sum(everything) / 1e3)
    rows.add("setup_s", setup_s)
    rows.add("throughput_ops_s", throughput_ops_s, n=len(everything))
    rows.add("query_p50_ms", percentile(reads, 0.5), n=len(reads))
    rows.add("query_p95_ms", percentile(reads, 0.95), n=len(reads))
    rows.add("virtual_over_stored",
             sum(samples.profile("virtual")) / sum(samples.profile("stored")),
             n=samples.count("virtual"))
    rows.add("peak_rss_mb", rss_mb)
    for (role, name), latency in samples.latencies().items():
        rows.add(f"op.{role}.{name}.ms", latency, len(samples.by_class[role, name]), "ms")


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git (the
    driver's checkout is not a repository: then ``unknown``)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def header(args, sizes: dict) -> dict:
    return {
        "commit": commit_id(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
        "sizes": sizes,
    }
