"""Serving gate for the E18 concurrency experiment (CI smoke).

Runs the E18 collection — the asyncio serving tier under a 1k-client
burst against a sharded, replicated collection — writes the results to
``BENCH_e18.json``, and fails when the tier breaks one of its
contracts:

* replicas must end **byte-identical** to their primaries (the WAL
  redo stream is deterministic, so anything else is a replication bug);
* the over-budget probe must come back ``422 budget_exceeded`` — the
  cost meter rejects, queries are never killed by a timeout;
* served requests must stay inside the SLO (the bounded admission
  queue is what keeps the tail bounded — overflow sheds with 429
  instead of queueing without limit);
* no request may fail outright (5xx), and the burst must actually be
  ≥ 1000 concurrent clients.

Usage::

    PYTHONPATH=src python scripts/run_e18.py           # CI smoke
    PYTHONPATH=src python scripts/run_e18.py --full    # reproduce BENCH_e18.json

Both profiles drive 1000 concurrent clients (the concurrency *is* the
experiment); ``--full`` adds a second request round per client and the
larger per-shard documents behind the committed ``BENCH_e18.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench.experiments import collect_e18
from repro.bench.harness import require_key

#: Served requests inside the SLO: the admission queue is bounded, so
#: nearly everything that is admitted finishes well inside the window.
SERVED_SLO_FLOOR = 0.9
#: Absolute tail ceiling — queue_timeout plus generous service time.
P99_CEILING_MS = 10_000.0


def check(results: dict) -> list[str]:
    """Contract failures in an E18 result dict (shared with the
    bench-regression gate, which re-checks the committed file)."""
    failures: list[str] = []
    if require_key(results, "clients", "BENCH_e18.json") < 1000:
        failures.append(
            f"only {results['clients']} concurrent clients; the experiment "
            f"requires >= 1000"
        )
    if not require_key(results, "replica_identical", "BENCH_e18.json"):
        failures.append("replica stores not byte-identical to their primaries")
    probe = require_key(results, "budget_probe", "BENCH_e18.json")
    if (probe.get("status"), probe.get("code")) != (422, "budget_exceeded"):
        failures.append(
            f"over-budget probe answered {probe}; expected a structured "
            f"422 budget_exceeded from the cost meter"
        )
    outcomes = require_key(results, "outcomes", "BENCH_e18.json")
    if require_key(outcomes, "error", "BENCH_e18.json outcomes"):
        failures.append(f"{outcomes['error']} requests failed outright (5xx)")
    served_slo = require_key(results, "served_slo_fraction", "BENCH_e18.json")
    if served_slo < SERVED_SLO_FLOOR:
        failures.append(
            f"only {served_slo:.1%} of served requests inside the "
            f"{results.get('slo_ms', 0):.0f} ms SLO "
            f"(floor {SERVED_SLO_FLOOR:.0%})"
        )
    p99 = require_key(results, "p99_ms", "BENCH_e18.json")
    if not p99 <= P99_CEILING_MS:  # also catches NaN
        failures.append(f"p99 {p99:.0f} ms above the {P99_CEILING_MS:.0f} ms ceiling")
    return failures


def main(argv: list[str]) -> int:
    full = "--full" in argv
    if full:
        results = collect_e18(clients=1000, requests_per_client=2, books=24)
    else:
        results = collect_e18(clients=1000, requests_per_client=1, books=8)

    out = Path(__file__).resolve().parent.parent / "BENCH_e18.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")

    print(
        f"clients={results['clients']} attempts={results['attempts']} "
        f"ok={results['outcomes']['ok']} shed={results['outcomes']['shed']} "
        f"error={results['outcomes']['error']}"
    )
    print(
        f"p50={results['p50_ms']:.0f} ms  p99={results['p99_ms']:.0f} ms  "
        f"slo={results['slo_fraction']:.1%} (served {results['served_slo_fraction']:.1%})  "
        f"shed_rate={results['shed_rate']:.1%}  "
        f"throughput={results['throughput_rps']:.0f} ok/s"
    )
    print(
        f"replicas_identical={results['replica_identical']}  "
        f"shipped={results['shipped_ops']}  "
        f"budget_probe={results['budget_probe']}"
    )
    failures = check(results)
    if failures:
        print("serving gate failed:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("serving gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
