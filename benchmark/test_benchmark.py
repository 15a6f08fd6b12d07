"""Checks of the benchmark itself, on tiny documents.

Run as ``python -m pytest benchmark -q`` (tier-1 ``testpaths`` stays
``tests``).  Every metric named in ``BENCHMARK.json`` must come out of
every workload once, finite and with its unit; nothing may fail; the
same seed must give the same ops and the same exact counts, another seed
other ops; the checked-in baseline must resolve against itself, and
``compare.py`` must say ``worse`` and ``missing`` when it should.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import compare
import run
from inputs import SIZES
from ledger import SPEC

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = {
    "embedded_read": {"books": 12, "auction": 8, "dblp": 10},
    "cold_open": {"books": 12, "auction": 8, "dblp": 10},
    "durable_mix": {"books": 12, "updates_per_cycle": 4, "checkpoint_after": 2},
    "served_mix": {"documents": 8, "books": 6, "connections": 2},
}
COUNTS = (
    "storage.range_scans_per_item", "storage.page_reads_per_query",
    "storage.buffer_hit_share", "query.comparisons_per_item",
)


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    for workload, sizes in TINY.items():
        for key, value in sizes.items():
            monkeypatch.setitem(SIZES[workload], key, value)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmark"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_once_and_nothing_fails(workload, trace, tmp_path):
    rows, spans, attempted, failed = run.measure(workload, 3, 0.2, trace, str(tmp_path))
    assert attempted >= 1 and failed == 0 and rows.value("failed_share") == 0
    wanted = run.PER_LAYER if trace else run.END_TO_END
    metrics = rows.metrics(wanted)
    assert list(metrics) != [] and set(metrics) == set(wanted)
    named = [row for row in rows.rows if row["metric"] in wanted]
    assert len(named) == len(wanted)  # once each
    for row in named:
        assert math.isfinite(row["value"]) and row["unit"] == rows.UNITS[row["metric"]]
    if trace:
        assert spans.spans and all(span.end_s >= span.start_s > 0 for span in spans.spans)
        assert rows.value("bench.trace_overhead_ratio") > 0
    else:
        assert all(metrics[name]["value"] > 0 for name in wanted)  # never 0
    json.dumps(metrics)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_ops_follow_the_seed(workload, tmp_path):
    module = run.WORKLOADS[workload]
    first = module.op_sequence(5, str(tmp_path))
    assert first and first == module.op_sequence(5, str(tmp_path))
    assert first != module.op_sequence(6, str(tmp_path))


@pytest.mark.parametrize("workload", ["embedded_read", "durable_mix"])
def test_exact_counts_repeat(workload, tmp_path):
    def counts():
        rows, *_ = run.measure(workload, 4, 0.0, True, str(tmp_path))
        return [rows.value(name) for name in COUNTS]

    assert counts() == counts()


def test_out_file_appends_runs_with_spans(tmp_path, capsys):
    out = tmp_path / "result.json"
    for trace in ("0", "1"):
        assert run.main(["--workload", "embedded_read", "--seed", "3", "--seconds", "0.1",
                         "--trace", trace, "--out", str(out)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.PER_LAYER)
    untraced, traced = json.loads(out.read_text())["runs"]
    assert "spans" not in untraced and untraced["header"]["seed"] == 3
    assert compare.load(str(out))["embedded_read", "query_p50_ms"] == [
        row["value"] for row in untraced["rows"] if row["metric"] == "query_p50_ms"
    ]
    spans = traced["spans"]["embedded_read"]
    assert spans and all(len(span) == len(traced["span_columns"]) for span in spans)
    parents = [span[2] for span in spans if span[2] is not None]
    assert parents and all(0 <= parent < len(spans) for parent in parents)


# -- compare.py -------------------------------------------------------------------

BASELINE = Path(__file__).with_name("baseline.json")


def _result_file(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_baseline_resolves_against_itself(capsys):
    assert compare.main([str(BASELINE), str(BASELINE)]) == 0
    report = capsys.readouterr().out
    assert "unresolved" not in report and "missing" not in report and "worse" not in report
    for workload, metric in compare.pairings():
        assert f"{workload:14s} {metric['name']:27s}" in report


def test_compare_flags_worse_missing_and_failed(tmp_path, capsys):
    runs = json.loads(BASELINE.read_text())["runs"]
    untraced = [run for run in runs if not run["header"]["trace"]]

    def edited(change):
        copies = json.loads(json.dumps(untraced))
        for run in copies:
            run["rows"] = [row for row in (change(dict(row)) for row in run["rows"]) if row]
        return copies

    def slower(row):
        if (row["workload"], row["metric"]) == ("durable_mix", "recovery_s"):
            row["value"] *= 1.5
        return row

    def without_served(row):
        return row if row["workload"] != "served_mix" else None

    def one_failed(row):
        if (row["workload"], row["metric"]) == ("cold_open", "failed_share"):
            row["value"] = 0.001
        return row

    for change, line in (
        (slower, "durable_mix    recovery_s"),
        (without_served, "served_mix     query_p50_ms"),
        (one_failed, "cold_open      failed_share"),
    ):
        other = _result_file(tmp_path / "other.json", edited(change))
        assert compare.main([str(BASELINE), other]) == 1
        verdicts = [text for text in capsys.readouterr().out.splitlines() if text.startswith(line)]
        expected = "missing" if change is without_served else "worse"
        assert len(verdicts) == 1 and expected in verdicts[0]
