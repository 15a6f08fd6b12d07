"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``query``
    Load documents and evaluate a query::

        python -m repro query -d book.xml=./books.xml \\
            'for $t in virtualDoc("book.xml", "title { author }")//title \\
             return <t>{$t/text()}</t>'

    ``--books N`` / ``--auction N`` / ``--dblp N`` load synthetic datasets
    under ``book.xml`` / ``auction.xml`` / ``dblp.xml`` instead of files.

    ``--explain-analyze`` runs the query under a forced trace and prints
    the measured per-operator profile (calls, wall time, exclusive page
    reads / comparisons, virtual-vs-stored navigation split) after the
    result — see ``docs/OBSERVABILITY.md``.

``explain``
    Print the parsed expression tree of a query.

``guide``
    Print a document's DataGuide in vDataGuide (brace) notation, with
    instance counts.

``arrays``
    Resolve a vDataGuide against a document and print each virtual type's
    level array and lca length (Algorithm 1's output).

``batch``
    Evaluate many queries through the concurrent
    :class:`~repro.service.service.QueryService` (shared plan/view caches,
    an engine pool) and optionally print cache/latency metrics::

        python -m repro batch --books 100 --queries queries.txt \\
            --threads 4 --repeat 3 --metrics

``update``
    Apply durable update operations to a store directory (image + WAL;
    see :mod:`repro.updates.durable`)::

        python -m repro update ./bookstore --init books.xml
        python -m repro update ./bookstore \\
            --insert 1 '<book><title>New</title></book>'
        python -m repro update ./bookstore --delete 1.3 --checkpoint

    Opening the directory replays any WAL tail (crash recovery); minted
    numbers are printed after each operation.

    ``--doc URI`` treats the directory as a sharded *collection root*
    and operates on the per-document store ``DIR/<slug(URI)>`` — the
    layout a sharded server consumes one document at a time::

        python -m repro update ./collection --doc doc7.xml --init d7.xml

``serve``
    Start the HTTP front end (``POST /query``, ``POST /update``,
    ``GET /metrics``, ``GET /healthz``) over a query service::

        python -m repro serve --books 100 --port 8080
        python -m repro serve --durable book.xml=./bookstore --port 8080

    ``--durable URI=DIR`` opens a durable store directory; ``POST
    /update`` against its uri is WAL-logged and crash-safe.

    ``--trace-sample`` / ``--slow-query-ms`` / ``--trace-buffer``
    configure end-to-end tracing (``GET /debug/traces``; slow requests
    are logged with their span tree).

    The service is always a :class:`~repro.shard.service.ShardedService`
    (:mod:`repro.shard`): ``--shards N`` (default 1) partitions the
    loaded documents across N shards and scatter-gathers multi-document
    queries on one scatter thread per shard::

        python -m repro serve --shards 4 -d a.xml=a.xml -d b.xml=b.xml

    Every server is the asyncio serving tier (:mod:`repro.serve`):
    admission control (``--max-inflight`` / ``--admission-queue`` /
    ``--queue-timeout-ms``, shedding with 429 + ``Retry-After``),
    WAL-shipped read replicas (``--replicas N``), and per-query cost
    budgets (``--query-budget``) — see ``docs/SERVING.md``::

        python -m repro serve --replicas 2 --max-inflight 32 \\
            --query-budget 200000 --books 100

``traces``
    Fetch and render a running server's trace ring buffer::

        python -m repro traces --url http://127.0.0.1:8080
        python -m repro traces --slow
        python -m repro traces --format=chrome > trace.json  # chrome://tracing
        python -m repro traces --trace-id 263f34eaf56040d7

``bench``
    Alias for ``python -m repro.bench``: the paper's reconstructed
    evaluation, ``all | e1 ... e12 | list``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError
from repro.query.engine import Engine


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vPBN reproduction: query virtual hierarchies from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_documents(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-d",
            "--document",
            action="append",
            default=[],
            metavar="URI=FILE",
            help="load FILE under URI (repeatable)",
        )
        p.add_argument("--books", type=int, metavar="N",
                       help="load a synthetic books document as book.xml")
        p.add_argument("--auction", type=int, metavar="N",
                       help="load a synthetic auction document as auction.xml")
        p.add_argument("--dblp", type=int, metavar="N",
                       help="load a synthetic bibliography as dblp.xml")
        p.add_argument("--seed", type=int, default=7, help="generator seed")

    query = sub.add_parser("query", help="evaluate a query")
    add_documents(query)
    query.add_argument("text", help="the query")
    query.add_argument("--mode", choices=["indexed", "tree", "sql"], default="indexed")
    query.add_argument("--values", action="store_true",
                       help="print string values, one per line, instead of XML")
    query.add_argument("--stats", action="store_true",
                       help="print logical cost counters after the result")
    query.add_argument("--explain-analyze", action="store_true",
                       help="trace the run and print the per-operator "
                            "profile (time, page reads, comparisons)")

    explain = sub.add_parser("explain", help="print the parsed expression tree")
    explain.add_argument("text", help="the query")

    guide = sub.add_parser("guide", help="print a document's DataGuide")
    add_documents(guide)
    guide.add_argument("uri", nargs="?", help="which loaded document (default: only one)")

    arrays = sub.add_parser("arrays", help="print Algorithm 1's level arrays")
    add_documents(arrays)
    arrays.add_argument("spec", help="the vDataGuide specification")
    arrays.add_argument("uri", nargs="?", help="which loaded document (default: only one)")

    save = sub.add_parser("save", help="save a loaded document to a store image")
    add_documents(save)
    save.add_argument("path", help="output .vpbn file")
    save.add_argument("uri", nargs="?", help="which loaded document (default: only one)")

    batch = sub.add_parser(
        "batch", help="evaluate many queries through the concurrent service"
    )
    add_documents(batch)
    batch.add_argument("queries", nargs="*", help="query texts (else --queries/stdin)")
    batch.add_argument("--queries", dest="queries_file", metavar="FILE",
                       help="file with one query per line ('-' for stdin)")
    batch.add_argument("--mode", choices=["indexed", "tree", "sql"], default="indexed")
    batch.add_argument("--threads", type=int, default=4,
                       help="engine pool size / max concurrent queries")
    batch.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="run the whole list N times (N>1 exercises warm caches)")
    batch.add_argument("--values", action="store_true",
                       help="print string values instead of XML")
    batch.add_argument("--metrics", action="store_true",
                       help="print the service metrics snapshot (JSON, stderr)")

    update = sub.add_parser(
        "update", help="apply durable updates to a store directory"
    )
    update.add_argument("directory", help="durable store directory (image + WAL)")
    update.add_argument("--init", metavar="FILE",
                        help="create the directory from an XML file first")
    update.add_argument("--uri", help="document uri recorded at --init "
                                      "(default: the file name)")
    update.add_argument("--doc", metavar="URI",
                        help="treat DIRECTORY as a sharded collection root "
                             "and operate on its per-document store "
                             "DIRECTORY/<slug(URI)> (the layout `serve "
                             "--shards` consumes)")
    update.add_argument("--insert", nargs=2, metavar=("PARENT", "FRAGMENT"),
                        help="insert FRAGMENT as a child of the node PARENT")
    update.add_argument("--before", metavar="SIBLING",
                        help="position --insert before this child")
    update.add_argument("--after", metavar="SIBLING",
                        help="position --insert after this child")
    update.add_argument("--delete", metavar="TARGET",
                        help="delete the subtree rooted at TARGET")
    update.add_argument("--replace", nargs=2, metavar=("TARGET", "TEXT"),
                        help="overwrite the text/attribute node TARGET")
    update.add_argument("--checkpoint", action="store_true",
                        help="fold the WAL into the image afterwards")

    serve = sub.add_parser("serve", help="serve queries over HTTP")
    add_documents(serve)
    serve.add_argument("--durable", action="append", default=[],
                       metavar="URI=DIR",
                       help="open a durable store directory under URI "
                            "(repeatable); its POST /update is WAL-logged")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--mode", choices=["indexed", "tree", "sql"], default="indexed")
    serve.add_argument("--threads", type=int, default=4,
                       help="engine pool size / max concurrent queries "
                            "(split across shards when --shards > 1)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="partition the documents across N shards and "
                            "scatter-gather multi-document queries")
    serve.add_argument("--trace-sample", type=float, default=0.01,
                       metavar="RATE",
                       help="fraction of requests traced end to end "
                            "(0 disables tracing; default 0.01)")
    serve.add_argument("--slow-query-ms", type=float, default=500.0,
                       metavar="MS",
                       help="requests at least this slow land in the slow "
                            "log with their span tree (0 disables)")
    serve.add_argument("--trace-buffer", type=int, default=64,
                       help="ring-buffer capacity for recent/slow traces")
    # Accepted and ignored: there is one transport, and scripts written
    # when this flag selected it still pass it.
    serve.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="WAL-shipped read replicas per shard; reads "
                            "round-robin the replicas and fall back to the "
                            "primary when stale")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="concurrent requests executing; excess requests "
                            "queue then shed with 429")
    serve.add_argument("--admission-queue", type=int, default=128,
                       metavar="N",
                       help="requests allowed to wait for a slot before "
                            "arrivals shed immediately")
    serve.add_argument("--queue-timeout-ms", type=float, default=500.0,
                       metavar="MS",
                       help="max wait for an execution slot before a queued "
                            "request sheds")
    serve.add_argument("--query-budget", type=int, default=0, metavar="VISITS",
                       help="per-query node-visit ceiling enforced by the "
                            "cost meter (0 = unlimited); clients may tighten "
                            "it per request with ?max_visits=")
    serve.add_argument("--drain-deadline-s", type=float, default=10.0,
                       metavar="S",
                       help="graceful-shutdown bound: SIGTERM stops accepting "
                            "and lets in-flight requests finish this long")

    traces = sub.add_parser(
        "traces", help="fetch and render a running server's traces"
    )
    traces.add_argument("--url", default="http://127.0.0.1:8080",
                        help="server base url (default http://127.0.0.1:8080)")
    traces.add_argument("--slow", action="store_true",
                        help="show the slow-query log instead of recent traces")
    traces.add_argument("--format", choices=("text", "json", "chrome"),
                        default="text",
                        help="text (default), json (raw payload), or chrome "
                             "(trace-event JSON for chrome://tracing/Perfetto)")
    traces.add_argument("--trace-id", default=None, metavar="HEX",
                        help="only the trace with this 16-hex id (as printed "
                             "in X-Trace-Id headers and metric exemplars)")

    sub.add_parser("bench", help="run the paper's reconstructed evaluation, "
                                  "E1-E12: all | e1 ... e12 | list")
    return parser


def _load_documents(engine, args: argparse.Namespace) -> list[str]:
    """Load the requested documents into an :class:`Engine` or a
    :class:`~repro.service.service.QueryService` (same load/open surface)."""
    uris: list[str] = []
    for spec in args.document:
        if "=" not in spec:
            raise SystemExit(f"--document expects URI=FILE, got {spec!r}")
        uri, _, path = spec.partition("=")
        with open(path, "rb") as probe:
            is_image = probe.read(4) == b"VPBN"
        if is_image:
            engine.open(path, uri=uri)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                engine.load(uri, handle.read())
        uris.append(uri)
    if args.books:
        from repro.workloads.books import books_document

        engine.load("book.xml", books_document(args.books, seed=args.seed))
        uris.append("book.xml")
    if args.auction:
        from repro.workloads.xmarklike import auction_document

        engine.load("auction.xml", auction_document(items=args.auction, seed=args.seed))
        uris.append("auction.xml")
    if args.dblp:
        from repro.workloads.dblplike import dblp_document

        engine.load("dblp.xml", dblp_document(args.dblp, seed=args.seed))
        uris.append("dblp.xml")
    return uris


def _pick_uri(uris: list[str], requested: Optional[str]) -> str:
    if requested is not None:
        if requested not in uris:
            raise SystemExit(f"{requested!r} is not loaded (have: {', '.join(uris)})")
        return requested
    if len(uris) != 1:
        raise SystemExit("several documents loaded; name one explicitly")
    return uris[0]


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "explain":
        from repro.query.plan import explain_expr
        from repro.query.parser import parse_query

        print(explain_expr(parse_query(args.text)))
        return 0

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "update":
        return _run_update(args)

    if args.command == "traces":
        return _run_traces(args)

    if args.command == "serve":
        import asyncio

        from repro.query.budget import CostBudget
        from repro.serve import build_serving, serve_async
        from repro.shard import ShardedService

        service = ShardedService(
            shards=args.shards,
            pool_size=max(1, args.threads // max(1, args.shards)),
            mode=args.mode,
            trace_sample=args.trace_sample,
            trace_buffer=args.trace_buffer,
            slow_query_s=args.slow_query_ms / 1e3 if args.slow_query_ms > 0 else None,
        )
        if args.shards > 1:
            print(f"sharding across {args.shards} shards", file=sys.stderr)
        uris = _load_documents(service, args)
        for spec in args.durable:
            if "=" in spec:
                uri, _, directory = spec.partition("=")
                durable = service.open_durable(directory, uri=uri)
            else:
                durable = service.open_durable(spec)
            uris.append(durable.store.document.uri)
            if durable.recovery.replayed:
                print(f"recovered {durable.store.document.uri!r}: replayed "
                      f"{durable.recovery.replayed} WAL record(s)",
                      file=sys.stderr)
        if not uris:
            print("note: no documents loaded; doc()/virtualDoc() will fail",
                  file=sys.stderr)
        budget = (
            CostBudget(max_node_visits=args.query_budget)
            if args.query_budget > 0
            else None
        )
        app = build_serving(
            service,
            replicas=max(0, args.replicas),
            max_inflight=args.max_inflight,
            queue_limit=args.admission_queue,
            queue_timeout_s=args.queue_timeout_ms / 1e3,
            max_budget=budget,
        )
        if args.replicas > 0:
            print(f"replicating: {args.replicas} replica(s) per shard",
                  file=sys.stderr)
        asyncio.run(
            serve_async(
                app, args.host, args.port, drain_deadline_s=args.drain_deadline_s
            )
        )
        return 0

    engine = Engine()
    uris = _load_documents(engine, args)

    if args.command == "query":
        if not uris:
            print("note: no documents loaded; doc()/virtualDoc() will fail",
                  file=sys.stderr)
        if args.explain_analyze:
            from repro.obs.profile import build_profile, render_profile

            result, trace = engine.explain_analyze(args.text, mode=args.mode)
        else:
            result = engine.execute(args.text, mode=args.mode)
        if args.values:
            for value in result.values():
                print(value)
        else:
            print(result.to_xml())
        if args.explain_analyze:
            print()
            print(render_profile(build_profile(trace)))
        if args.stats:
            for name, value in engine.stats.snapshot().items():
                print(f"# {name}: {value}", file=sys.stderr)
        return 0

    if args.command == "guide":
        from repro.dataguide.spec import guide_to_spec

        store = engine.store(_pick_uri(uris, args.uri))
        print(guide_to_spec(store.guide))
        print()
        for guide_type in store.guide.iter_types():
            print(f"{guide_type.dotted():48s} count={guide_type.count}")
        return 0

    if args.command == "arrays":
        store = engine.store(_pick_uri(uris, args.uri))
        vdoc = engine.virtual(store.document.uri, args.spec)
        print(f"{'virtual type':32s} {'original type':36s} {'level array':20s} lca")
        for vtype in vdoc.vguide.iter_vtypes():
            print(
                f"{vtype.dotted():32s} {vtype.original.dotted():36s} "
                f"{str(list(vtype.level_array)):20s} {vtype.lca_length}"
            )
        report = vdoc.vguide.report()
        if report["dropped"]:
            names = ", ".join(t.dotted() for t in report["dropped"][:8])
            print(f"\nwarning: data invisible through this view: {names}",
                  file=sys.stderr)
        if report["duplicated"]:
            names = ", ".join(t.dotted() for t in report["duplicated"])
            print(f"warning: types placed more than once: {names}",
                  file=sys.stderr)
        if not report["chain_exact"]:
            print(
                "warning: view is not chain-exact; bare vPBN ancestor/order "
                "predicates over-approximate across broken chains (queries "
                "are unaffected)",
                file=sys.stderr,
            )
        return 0

    if args.command == "save":
        uri = _pick_uri(uris, args.uri)
        size = engine.save(uri, args.path)
        print(f"saved {uri} to {args.path} ({size} bytes)")
        return 0

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


def _read_queries(args: argparse.Namespace) -> list[str]:
    """Positional queries, then one query per non-blank non-# line of
    ``--queries`` (or stdin when neither source is given)."""
    queries = list(args.queries)
    source = args.queries_file
    if source is None and not queries:
        source = "-"
    if source is not None:
        handle = sys.stdin if source == "-" else open(source, "r", encoding="utf-8")
        try:
            for line in handle:
                text = line.strip()
                if text and not text.startswith("#"):
                    queries.append(text)
        finally:
            if handle is not sys.stdin:
                handle.close()
    return queries


def _run_update(args: argparse.Namespace) -> int:
    import os

    from repro.pbn.number import Pbn
    from repro.updates.durable import DurableStore
    from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText

    directory = args.directory
    if args.doc is not None:
        from repro.shard.catalog import doc_slug

        directory = os.path.join(args.directory, doc_slug(args.doc))

    if args.init is not None:
        from repro.xmlmodel.parser import parse_document

        with open(args.init, "r", encoding="utf-8") as handle:
            text = handle.read()
        uri = args.uri if args.uri is not None else (
            args.doc if args.doc is not None else os.path.basename(args.init)
        )
        durable = DurableStore.create(directory, parse_document(text, uri))
        print(f"created durable store for {uri!r} in {directory}")
    else:
        durable = DurableStore.open(directory)
        report = durable.recovery
        if report.replayed or report.torn_tail_discarded:
            tail = ", discarded a torn WAL tail" if report.torn_tail_discarded else ""
            print(f"recovered: replayed {report.replayed} WAL record(s){tail}")

    ops = []
    if args.insert:
        ops.append(InsertSubtree(
            parent=Pbn.parse(args.insert[0]),
            fragment=args.insert[1],
            before=Pbn.parse(args.before) if args.before else None,
            after=Pbn.parse(args.after) if args.after else None,
        ))
    elif args.before or args.after:
        raise SystemExit("--before/--after only position an --insert")
    if args.delete:
        ops.append(DeleteSubtree(target=Pbn.parse(args.delete)))
    if args.replace:
        ops.append(ReplaceText(target=Pbn.parse(args.replace[0]), text=args.replace[1]))

    try:
        for op in ops:
            result = durable.apply(op)
            detail = ""
            if result.minted:
                detail = f" minted {', '.join(str(n) for n in result.minted)}"
            if result.removed:
                detail += f" removed {len(result.removed)} node(s)"
            print(f"seq {durable.seq}: {op.describe()}{detail}")
        if args.checkpoint:
            size = durable.checkpoint()
            print(f"checkpointed: image {size} bytes, WAL reset")
        print(f"state: seq={durable.seq} wal={durable.wal_size} bytes "
              f"nodes={durable.store.size_summary()['nodes']}")
    finally:
        durable.close()
    return 0


def _run_traces(args: argparse.Namespace) -> int:
    import json
    from urllib.request import urlopen

    from repro.obs.profile import render_trace

    url = args.url.rstrip("/") + "/debug/traces"
    with urlopen(url) as response:
        payload = json.loads(response.read().decode("utf-8"))
    kind = "slow" if args.slow else "recent"
    traces = payload.get(kind, [])
    if args.trace_id:
        traces = [t for t in traces if t.get("trace_id") == args.trace_id]
        if not traces:
            print(f"no {kind} trace with id {args.trace_id}", file=sys.stderr)
            return 1
    if args.format == "chrome":
        from repro.obs.chrome import render_chrome

        print(render_chrome(traces))
        return 0
    if args.format == "json":
        print(json.dumps(traces, indent=1, sort_keys=True))
        return 0
    counts = payload.get("counts", {})
    print(f"# {len(traces)} {kind} trace(s); "
          f"sampled {counts.get('sampled', '?')} of "
          f"{counts.get('admitted', '?')} admitted requests")
    for trace in traces:
        print(render_trace(trace))
        print()
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    import json

    from repro.service import QueryService

    service = QueryService(pool_size=args.threads, mode=args.mode)
    uris = _load_documents(service, args)
    if not uris:
        print("note: no documents loaded; doc()/virtualDoc() will fail",
              file=sys.stderr)
    queries = _read_queries(args)
    if not queries:
        raise SystemExit("batch: no queries given")
    failures = 0
    for round_number in range(max(args.repeat, 1)):
        outcome = service.batch(queries, workers=args.threads)
        for text, item in zip(queries, outcome.outcomes):
            if isinstance(item, Exception):
                failures += 1
                print(f"error: {text!r}: {item}", file=sys.stderr)
            elif round_number == 0:
                # Print each query's answer once; later rounds only warm
                # the caches (and the metrics tell that story).  A
                # constructed answer is checked as it is written.
                try:
                    answer = item.values() if args.values else [item.to_xml()]
                except ReproError as error:
                    failures += 1
                    print(f"error: {text!r}: {error}", file=sys.stderr)
                    continue
                for line in answer:
                    print(line)
    if args.metrics:
        print(json.dumps(service.snapshot(), indent=2), file=sys.stderr)
    return 1 if failures else 0
