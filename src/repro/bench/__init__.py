"""The paper's reconstructed evaluation: experiments E1-E12.

Run everything::

    python -m repro.bench all

or some of them (``python -m repro.bench e3 e4``).  Each run prints one
experiment-info header (date, commit, python, platform) and a paper-style
table per experiment; EXPERIMENTS.md records a captured run with
commentary.  What the *system* around the paper costs is measured
elsewhere, by ``benchmark/run.py`` (see docs/PERFORMANCE.md).
"""

from repro.bench.harness import EXPERIMENTS, run_experiment, run_all
from repro.bench.report import Table

__all__ = ["EXPERIMENTS", "Table", "run_all", "run_experiment"]
