"""Compare two result files written by ``run.py --out``.

    python3 benchmark/compare.py A.json B.json

A result file holds one or more runs (``--out`` appends).  For every
(workload, metric) pairing the medians of A and B are compared against
the metric's bound — ``BENCHMARK.json`` for the end-to-end metrics every
workload reports, :data:`OWN` for the ones only some workloads have:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread on either side (interquartile range
                over median, four or more runs) is wider than the bound,
                so the difference cannot be told from noise;
``missing``     one of the files has no untraced run with that pairing.

``failed_share`` is absolute: a failed op in any run of either file is
``worse``.  Every ratio is printed with its base (A's median).  Exit
status is 1 unless every pairing is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: End-to-end metrics that exist on one or two workloads only, with the
#: issue's bounds.  The driver wants every end-to-end metric of
#: ``BENCHMARK.json`` from every workload, so these are per-layer metrics
#: there; untraced runs emit them as rows all the same, and they are
#: judged here.  ``served_mix`` reports ``update_p50_ms`` too, from some
#: 70 updates a run; its spread stays above a tenth, so it is not judged.
OWN = [
    ({"name": "update_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}, ("durable_mix",)),
    ({"name": "update_p90_ms", "unit": "ms", "better": "lower", "bound": 0.15}, ("durable_mix",)),
    ({"name": "recovery_s", "unit": "s", "better": "lower", "bound": 0.10}, ("durable_mix",)),
    ({"name": "load_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.10}, ("cold_open",)),
    ({"name": "reopen_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.10}, ("cold_open",)),
    ({"name": "stored_bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.01},
     ("cold_open", "durable_mix")),
]
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def pairings():
    """``(workload, metric)`` in report order."""
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            yield workload, metric
        for metric, workloads in OWN:
            if workload in workloads:
                yield workload, metric
        yield workload, FAILED_SHARE


def load(path: str) -> dict:
    """``{(workload, metric): [values]}`` over the untraced runs of a
    result file (end-to-end numbers never come from a traced run)."""
    values: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["header"]["trace"]:
            for row in run["rows"]:
                values.setdefault((row["workload"], row["metric"]), []).append(row["value"])
    return values


def spread(values: list) -> float:
    """Interquartile range over the median; 0 with fewer than four runs
    (and for a median of 0, which only ``failed_share`` has)."""
    if len(values) < 4 or not statistics.median(values):
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, a: list, b: list) -> tuple[str, float]:
    """``(ok|worse|unresolved, B's loss relative to A's median)``."""
    if metric is FAILED_SHARE:
        return ("worse" if max(a + b) else "ok"), max(b)
    base, other = statistics.median(a), statistics.median(b)
    loss = (other - base) / base
    if metric["better"] == "higher":
        loss = -loss
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved", loss
    return ("worse" if loss > metric["bound"] else "ok"), loss


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':14s} {'metric':27s} {'A median':>12s} {'B median':>12s} "
          f"{'B vs A':>9s} {'bound':>6s} {'spread A/B':>13s}  verdict")
    for workload, metric in pairings():
        key = (workload, metric["name"])
        if key not in a or key not in b:
            bad += 1
            print(f"{workload:14s} {metric['name']:27s} missing "
                  f"(n={len(a.get(key, []))}/{len(b.get(key, []))})")
            continue
        outcome, loss = verdict(metric, a[key], b[key])
        bad += outcome != "ok"
        print(
            f"{workload:14s} {metric['name']:27s} "
            f"{statistics.median(a[key]):12.4f} {statistics.median(b[key]):12.4f} "
            f"{-loss if metric['better'] == 'higher' else loss:+8.1%} "
            f"{metric['bound']:6.1%} "
            f"{spread(a[key]):6.1%}/{spread(b[key]):5.1%}  {outcome} "
            f"(base {statistics.median(a[key]):.4g} {metric['unit']}, "
            f"n={len(a[key])}/{len(b[key])})"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
