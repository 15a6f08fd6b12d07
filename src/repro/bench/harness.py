"""Experiment runner: timing helpers and the experiment registry."""

from __future__ import annotations

import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from typing import Callable

from repro.bench.report import Table

#: name -> zero-argument callable returning a list of Tables.
EXPERIMENTS: dict[str, Callable[[], list[Table]]] = {}


def experiment(name: str):
    """Register an experiment function under ``name``."""

    def wrap(fn: Callable[[], list[Table]]):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


def best_of(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best wall-clock time of ``repeat`` calls (the conventional
    microbenchmark reduction: the minimum is the least noisy estimate)."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def per_op_ns(fn: Callable[[], object], inner_loops: int, repeat: int = 3) -> float:
    """Nanoseconds per operation for a function that runs ``inner_loops``
    operations per call."""
    return best_of(fn, repeat) / inner_loops * 1e9


def experiment_names() -> list[str]:
    """Registered names in numeric order (``e2`` before ``e10``) — the one
    ordering ``bench list`` and ``bench all`` share."""
    # Import for the registration side effect.
    from repro.bench import experiments as _experiments  # noqa: F401

    return sorted(EXPERIMENTS, key=lambda name: int(name[1:]))


def experiment_info() -> str:
    """What a captured run needs to be re-derivable: when, from which
    commit, on which interpreter and machine (``unknown`` commit outside
    a git checkout)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    now = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")
    return "\n".join(
        [
            "== Experiment info ==",
            f"date:     {now}",
            f"commit:   {commit}",
            f"python:   {platform.python_version()}",
            f"platform: {platform.platform()}",
        ]
    )


def run_experiment(*names: str) -> list[Table]:
    """Run the named experiments in the order given and print their
    tables under one experiment-info header."""
    known = experiment_names()
    for name in names:
        if name not in known:
            raise SystemExit(
                f"unknown experiment {name!r}; known: {', '.join(known)}, all"
            )
    print(experiment_info())
    print()
    tables: list[Table] = []
    for name in names:
        for table in EXPERIMENTS[name]():
            print(table.render())
            print()
            tables.append(table)
    return tables


def run_all() -> list[Table]:
    """Run every registered experiment, in numeric order."""
    return run_experiment(*experiment_names())
