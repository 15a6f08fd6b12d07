"""Smoke tests: every experiment runs and produces sane tables.

The registry bodies are executed at their default scales by
``python -m repro.bench``; here we only check the machinery and the cheap
experiments end to end, so the test suite stays fast.
"""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.harness import (
    EXPERIMENTS,
    best_of,
    experiment_names,
    per_op_ns,
    run_experiment,
)
from repro.bench import experiments as _experiments  # noqa: F401 - registers
from repro.bench.report import Table


def test_registry_complete(capsys):
    names = [f"e{n}" for n in range(1, 13)]
    # Exactly E1-E12, and ``bench list`` prints them in numeric order (e2
    # before e10), the order ``bench all`` runs them in.
    assert experiment_names() == names
    assert bench_main(["list"]) == 0
    assert capsys.readouterr().out.split() == names
    with pytest.raises(SystemExit, match="unknown experiment 'e17'"):
        bench_main(["e5", "e17"])
    assert capsys.readouterr().out == ""  # rejected before anything ran


def test_best_of_returns_positive_time():
    assert best_of(lambda: sum(range(100))) > 0


def test_per_op_ns():
    assert per_op_ns(lambda: sum(range(100)), inner_loops=100) > 0


def test_table_render_and_markdown():
    table = Table("t", "demo", ["a", "b"], [[1, 2.5], ["x", 1234567]], ["note"])
    text = table.render()
    assert "== T: demo ==" in text
    assert "note: note" in text
    markdown = table.to_markdown()
    assert markdown.startswith("### T — demo")
    assert "| a | b |" in markdown


def test_e5_space_runs():
    tables = EXPERIMENTS["e5"]()
    (table,) = tables
    assert len(table.rows) == 3
    for row in table.rows:
        per_type_pct = row[5]
        per_node_pct = row[6]
        # The paper's claims: per-type is negligible, per-node roughly
        # doubles number storage.
        assert per_type_pct < 5
        assert per_node_pct > 50


def test_e7_cases_runs_and_matches():
    tables = EXPERIMENTS["e7"]()
    (table,) = tables
    assert len(table.rows) == 3
    assert all(row[-1] for row in table.rows)  # all match materialized


def test_e9_io_shape(capsys):
    (table,) = run_experiment("e9")
    # One experiment-info header per invocation, before the first table.
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== Experiment info =="
    assert [line.split(":")[0] for line in lines[1:5]] == [
        "date", "commit", "python", "platform"
    ]
    virtual_row, materialize_row = table.rows
    assert virtual_row[1] == 0  # virtual writes nothing
    assert materialize_row[1] > 0  # materialization writes a new heap
    assert materialize_row[4] > 0  # and rebuilds indexes
