"""Prometheus text exposition (format version 0.0.4), dependency-free.

Renders a :class:`~repro.service.metrics.ServiceMetrics` block — plain
and labeled counters, latency histograms with cumulative ``_bucket`` /
``_sum`` / ``_count`` series — plus the storage-layer logical counters,
as the ``text/plain; version=0.0.4`` format every Prometheus scraper
understands.  The JSON snapshot stays the ``GET /metrics`` default; this
format is served on content negotiation (see
:mod:`repro.serve.app`).

Naming: dotted metric names map to underscored ones under a ``repro_``
prefix (``engine.query_seconds`` -> ``repro_engine_query_seconds``), so
the table in :mod:`repro.service.metrics` doubles as the scrape
dictionary.  Label values are escaped per the exposition format rules
(backslash, double quote, newline).
"""

from __future__ import annotations

import re
from typing import Optional

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(dotted: str, prefix: str = "repro") -> str:
    """``engine.query_seconds`` -> ``repro_engine_query_seconds``."""
    name = _NAME_OK.sub("_", dotted)
    if prefix:
        name = f"{prefix}_{name}"
    if name[0].isdigit():
        name = "_" + name
    return name


def escape_label_value(value: str) -> str:
    """Exposition-format label escaping: ``\\`` then ``"`` then newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict) -> str:
    """``{key="value",...}`` or the empty string."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    formatted = repr(float(value))
    return formatted


def render_prometheus(metrics, storage=None, extra_gauges: Optional[dict] = None) -> str:
    """The full exposition document.

    :param metrics: a ``ServiceMetrics`` block (uses its structured
        counter and histogram accessors).
    :param storage: an optional ``StorageStats`` block rendered as
        ``repro_storage_*`` counters.
    :param extra_gauges: optional ``{dotted_name: float}`` gauges (cache
        occupancy, admission queue depth, durable WAL bytes, ...).  A
        value may also be a list of ``(labels_dict, float)`` pairs for a
        labeled gauge family (per-replica lag, per-shard ship-log head).

    Histograms carrying an exemplar (a sampled request's trace id, see
    ``ServiceMetrics.observe``) emit it as a comment line —
    ``# exemplar <name> {trace_id="..."} <value>`` — which every 0.0.4
    parser skips but humans and the tests can link back to
    ``/debug/traces``.
    """
    lines: list[str] = []

    by_name: dict[str, list[tuple[dict, int]]] = {}
    for dotted, labels, value in metrics.counters_structured():
        by_name.setdefault(dotted, []).append((labels, value))
    for dotted in sorted(by_name):
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} counter")
        for labels, value in by_name[dotted]:
            lines.append(f"{name}{format_labels(labels)} {value}")

    for dotted, histogram in sorted(metrics.histograms_copy().items()):
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{_format_float(bound)}"}} {cumulative}'
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{name}_sum {_format_float(histogram.total)}")
        lines.append(f"{name}_count {histogram.count}")
        if getattr(histogram, "exemplar", None) is not None:
            trace_id, value = histogram.exemplar
            lines.append(
                f'# exemplar {name} {{trace_id="{escape_label_value(trace_id)}"}}'
                f" {_format_float(value)}"
            )

    if storage is not None:
        for counter, value in sorted(storage.snapshot().items()):
            name = metric_name(f"storage.{counter}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")

    if extra_gauges:
        for dotted, value in sorted(extra_gauges.items()):
            name = metric_name(dotted)
            lines.append(f"# TYPE {name} gauge")
            if isinstance(value, (list, tuple)):
                for labels, sample in value:
                    lines.append(
                        f"{name}{format_labels(labels)} {_format_float(float(sample))}"
                    )
            else:
                lines.append(f"{name} {_format_float(float(value))}")

    return "\n".join(lines) + "\n"
