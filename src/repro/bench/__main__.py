"""CLI entry point: ``python -m repro.bench [all | e1 ... e12 | list]``."""

from __future__ import annotations

import sys

from repro.bench.harness import experiment_names, run_all, run_experiment


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("all",):
        run_all()
        return 0
    if argv[0] in ("list", "--list"):
        for name in experiment_names():
            print(name)
        return 0
    run_experiment(*argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
