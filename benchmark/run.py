"""One end-to-end benchmark with a per-layer ledger.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

With ``--trace 0`` a workload is set up three times, run closed-loop for
``--seconds`` with every answer checked, and its end-to-end metrics
printed.  With ``--trace 1`` the same seeded ops are replayed as an
entry-point ladder under benchmark-side spans and the per-layer metrics
are printed instead.  The last line of standard output is the JSON result
object.  ``--out FILE`` appends the run (header, flat rows, and a traced
run's spans) to a result file.  Without ``--workload`` every workload
runs in turn.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Fixed string hashing for this process and the server it spawns.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

_PROCESS_STARTED = time.perf_counter()

import argparse
import gc
import json
import shutil
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wl_cold
import wl_durable
import wl_embedded
import wl_served
from inputs import SIZES
from ledger import SPEC, Rows, SpanLog, end_to_end, header, undisturbed

WORKLOADS = {
    "embedded_read": wl_embedded,
    "cold_open": wl_cold,
    "durable_mix": wl_durable,
    "served_mix": wl_served,
}
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
#: Set-ups per untraced run.  One set-up is a single second-long sample
#: on a host that stalls for seconds; of three, one is undisturbed.
SETUPS = 3


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload; returns ``(rows, spans, attempted, failed)``."""
    module = WORKLOADS[name]
    rows, spans = Rows(name), SpanLog()
    if trace:
        state = module.setup(seed, workdir)
        try:
            outcome = module.trace(state, seconds, rows, spans)
        finally:
            module.teardown(state)
    else:
        # Import time is paid once per process; every set-up pays the rest.
        setup_s = []
        state = None
        for _ in range(SETUPS):
            if state is not None:
                module.teardown(state)
                # Free it (documents are cyclic) before the next one is
                # built, or peak_rss_mb depends on when the collector ran.
                state = None
                gc.collect()
            started = time.perf_counter()
            state = module.setup(seed, workdir)
            setup_s.append(time.perf_counter() - started)
        try:
            outcome = module.run(state, seconds, rows)
        finally:
            module.teardown(state)
        end_to_end(
            rows,
            setup_s=_IMPORT_S + undisturbed(setup_s),
            samples=outcome["samples"],
            rss_mb=outcome["rss_mb"],
            throughput_ops_s=outcome.get("throughput_ops_s"),
        )
    rows.add("failed_share", outcome["failed"] / outcome["ops"], outcome["ops"], "ratio")
    return rows, spans, outcome["ops"], outcome["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run (header, rows, spans) to a JSON result file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    wanted = PER_LAYER if args.trace else END_TO_END
    all_rows, all_spans, metrics = [], {}, {}
    attempted = failed = 0
    for name in names:
        # Scratch space inside the checkout (ignored by git).
        workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
        try:
            rows, spans, ops, bad = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted += ops
        failed += bad
        metrics = rows.metrics(wanted)
        for row in rows.rows:
            print(f"{row['workload']:14s} {row['metric']:44s} {row['value']:14.4f} {row['unit']:8s} n={row['n']}")
        all_rows.extend(rows.rows)
        all_spans[name] = spans.to_rows()
    if args.out:
        out = Path(args.out)
        runs = json.loads(out.read_text())["runs"] if out.exists() else []
        run = {"header": dict(header(args, SIZES), attempted=attempted, failed=failed), "rows": all_rows}
        if args.trace:
            run["span_columns"], run["spans"] = SpanLog.COLUMNS, all_spans
        runs.append(run)
        # One run per line keeps a file with spans in it diffable.
        out.write_text('{"runs": [\n' + ",\n".join(json.dumps(run) for run in runs) + "\n]}\n")
    # The driver runs one workload per call; with several, the last
    # line carries the totals and the last workload's metrics.
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


_IMPORT_S = time.perf_counter() - _PROCESS_STARTED

if __name__ == "__main__":
    raise SystemExit(main())
