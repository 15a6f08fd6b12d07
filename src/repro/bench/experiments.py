"""The reconstructed experiment suite (see DESIGN.md section 4).

The provided paper text truncates before its evaluation section, so these
experiments measure the costs the surviving text analyzes — Algorithm 1's
O(cN) bound, vPBN-vs-PBN comparison overhead, virtual-vs-materialized query
evaluation, space, value construction, and I/O — rather than replaying
numbered tables.  Expected *shapes* are stated in each table's notes; the
captured numbers live in EXPERIMENTS.md.
"""

from __future__ import annotations

import random

from repro.bench.harness import best_of, experiment, per_op_ns
from repro.bench.report import Table, seconds
from repro.core.level_arrays import build_level_arrays
from repro.core.values import ValueStats, write
from repro.core.virtual_document import VirtualDocument
from repro.core import vpbn as V
from repro.dataguide.guide import DataGuide
from repro.dataguide.spec import guide_to_spec
from repro.pbn import axes as pbn_axes
from repro.pbn.codec import encoded_size
from repro.query.engine import Engine
from repro.transform.materialize import materialize_to_store
from repro.transform.twopass import two_pass_pipeline
from repro.vdataguide.grammar import parse_vdataguide
from repro.workloads.books import books_document
from repro.workloads.dblplike import dblp_document
from repro.workloads.xmarklike import auction_document
from repro.workloads import queries as Q
from repro.xmlmodel.nodes import Document, NodeKind
from repro.xmlmodel.serializer import serialize

_AXES = [
    "self",
    "parent",
    "child",
    "ancestor",
    "descendant",
    "preceding",
    "following",
    "preceding-sibling",
    "following-sibling",
]


# ---------------------------------------------------------------------------
# E1 — Algorithm 1 scales as O(cN)
# ---------------------------------------------------------------------------


def _synthetic_guide(types: int, depth: int) -> DataGuide:
    """A DataGuide with ``types`` types arranged in chains of ``depth``
    (unique labels, so the identity spec resolves unambiguously)."""
    guide = DataGuide()
    count = 0
    chain = 0
    while count < types:
        path: tuple[str, ...] = ("r",)
        guide.ensure_type(path)
        if count == 0:
            count += 1
        for level in range(1, depth):
            path = path + (f"t{chain}_{level}",)
            guide.ensure_type(path)
            count += 1
            if count >= types:
                break
        chain += 1
    return guide


@experiment("e1")
def e1_level_arrays() -> list[Table]:
    """Level-array construction time vs vDataGuide size and depth."""
    size_table = Table(
        "e1a",
        "Algorithm 1: time vs vDataGuide size N (depth fixed at 8)",
        ["N (types)", "build ms", "us per type"],
        notes=["expected shape: linear in N (us/type roughly constant)"],
    )
    for types in (32, 128, 512, 2048):
        guide = _synthetic_guide(types, 8)
        spec = guide_to_spec(guide)
        vguide = parse_vdataguide(spec, guide)
        elapsed = best_of(lambda: build_level_arrays(vguide))
        n = len(vguide)
        size_table.rows.append([n, seconds(elapsed * 1e3), seconds(elapsed / n * 1e6)])

    depth_table = Table(
        "e1b",
        "Algorithm 1: time vs original depth c (N fixed near 512)",
        ["c (depth)", "N (types)", "build ms", "us per cell (N*c)"],
        notes=["expected shape: linear in c at fixed N (us/cell roughly constant)"],
    )
    for depth in (4, 8, 16, 32, 64):
        guide = _synthetic_guide(512, depth)
        spec = guide_to_spec(guide)
        vguide = parse_vdataguide(spec, guide)
        elapsed = best_of(lambda: build_level_arrays(vguide))
        n = len(vguide)
        depth_table.rows.append(
            [depth, n, seconds(elapsed * 1e3), seconds(elapsed / (n * depth) * 1e6)]
        )
    return [size_table, depth_table]


# ---------------------------------------------------------------------------
# E2 — vPBN axis checks vs PBN axis checks
# ---------------------------------------------------------------------------


@experiment("e2")
def e2_axis_overhead() -> list[Table]:
    """Per-comparison cost of each axis predicate, PBN vs vPBN."""
    document = books_document(books=300, seed=2)
    vdoc = VirtualDocument.from_spec(document, Q.BOOKS_INVERT.spec)
    vguide = vdoc.vguide

    rng = random.Random(5)
    vnodes = [
        vnode
        for vtype in vguide.iter_vtypes()
        for vnode in vdoc.reachable_instances(vtype)
    ]
    pairs = [(rng.choice(vnodes), rng.choice(vnodes)) for _ in range(2000)]
    pbn_pairs = [(a.node.pbn, b.node.pbn) for a, b in pairs]
    vpbn_pairs = [(a.vpbn, b.vpbn) for a, b in pairs]

    table = Table(
        "e2",
        "axis predicate cost per comparison (2000 random node pairs)",
        ["axis", "PBN ns/op", "vPBN ns/op", "ratio"],
        notes=[
            "expected shape: vPBN within a small constant factor of PBN "
            "(the paper: 'the cost to be modest')"
        ],
    )
    v_predicates = V.VIRTUAL_AXIS_PREDICATES
    for axis in _AXES:
        plain = pbn_axes.AXIS_PREDICATES[axis]
        virtual = v_predicates[axis]

        def run_plain():
            for a, b in pbn_pairs:
                plain(a, b)

        def run_virtual():
            for a, b in vpbn_pairs:
                virtual(a, b)

        plain_ns = per_op_ns(run_plain, len(pairs))
        virtual_ns = per_op_ns(run_virtual, len(pairs))
        table.rows.append(
            [axis, seconds(plain_ns), seconds(virtual_ns), seconds(virtual_ns / plain_ns)]
        )
    return [table]


# ---------------------------------------------------------------------------
# E3 — selectivity sweep: virtual vs materialize vs two-pass
# ---------------------------------------------------------------------------


@experiment("e3")
def e3_selectivity() -> list[Table]:
    """Query cost vs fraction of the transformed data the query touches."""
    items = 600
    document = auction_document(items=items, seed=3)
    engine = Engine()
    engine.load("auction.xml", document)
    spec = Q.AUCTION_FLAT.spec
    vdoc = engine.virtual("auction.xml", spec)  # build once, cached

    table = Table(
        "e3",
        f"selectivity sweep on auction({items} items): item[price > T]/name",
        [
            "threshold",
            "selectivity %",
            "results",
            "virtual ms",
            "materialize+query ms",
            "two-pass ms",
            "speedup vs mat.",
        ],
        notes=[
            "expected shape: virtual wins everywhere; the gap widens as "
            "selectivity drops because baselines transform everything "
            "regardless of the query"
        ],
    )
    for threshold in (4995, 4500, 2500, 0):
        query_v = (
            f'virtualDoc("auction.xml", "{spec}")'
            f"/site/item[price > {threshold}]/name/text()"
        )
        result = engine.execute(query_v)
        virtual_s = best_of(lambda: engine.execute(query_v))

        def materialize_path():
            store, _ = materialize_to_store(vdoc, "mat.xml")
            mat_engine = Engine()
            mat_engine.attach("mat.xml", store)
            return mat_engine.execute(
                f'doc("mat.xml")/site/item[price > {threshold}]/name/text()'
            )

        materialize_s = best_of(materialize_path, repeat=1)
        _, twopass_cost = two_pass_pipeline(
            vdoc,
            f'doc("t.xml")/site/item[price > {threshold}]/name/text()',
            uri="t.xml",
        )
        selectivity = len(result) / items * 100
        table.rows.append(
            [
                threshold,
                seconds(selectivity),
                len(result),
                seconds(virtual_s * 1e3),
                seconds(materialize_s * 1e3),
                seconds(twopass_cost.total_seconds * 1e3),
                seconds(materialize_s / virtual_s),
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E4 — scaling with document size
# ---------------------------------------------------------------------------


@experiment("e4")
def e4_scaling() -> list[Table]:
    """Virtual query cost scales like an ordinary indexed query."""
    table = Table(
        "e4",
        "document-size sweep (auction): bid-count aggregation per strategy",
        [
            "items",
            "nodes",
            "virtual ms",
            "indexed-original ms",
            "materialize+query ms",
            "mat/virtual",
        ],
        notes=[
            "'indexed-original' runs an equivalent query on the untransformed "
            "document — the floor any strategy could hope for; expected "
            "shape: virtual tracks it, materialize grows with total size"
        ],
    )
    for items in (100, 200, 400, 800):
        document = auction_document(items=items, seed=4)
        nodes = sum(1 for root in document.children for _ in root.iter_subtree())
        engine = Engine()
        engine.load("auction.xml", document)
        spec = Q.AUCTION_FLAT.spec
        vdoc = engine.virtual("auction.xml", spec)

        virtual_q = (
            f'for $a in virtualDoc("auction.xml", "{spec}")/site/auction '
            "return count($a/bid)"
        )
        original_q = (
            'for $a in doc("auction.xml")//auctions/auction return count($a/bid)'
        )
        virtual_s = best_of(lambda: engine.execute(virtual_q))
        original_s = best_of(lambda: engine.execute(original_q))

        def materialize_path():
            store, _ = materialize_to_store(vdoc, "mat.xml")
            mat_engine = Engine()
            mat_engine.attach("mat.xml", store)
            return mat_engine.execute(
                'for $a in doc("mat.xml")/site/auction return count($a/bid)'
            )

        materialize_s = best_of(materialize_path, repeat=1)
        table.rows.append(
            [
                items,
                nodes,
                seconds(virtual_s * 1e3),
                seconds(original_s * 1e3),
                seconds(materialize_s * 1e3),
                seconds(materialize_s / virtual_s),
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E5 — space overhead
# ---------------------------------------------------------------------------


@experiment("e5")
def e5_space() -> list[Table]:
    """Level arrays stored per type (vPBN) vs per node (naive) vs PBN."""
    table = Table(
        "e5",
        "space: PBN numbers vs level arrays per-type and per-node (2B/entry)",
        [
            "dataset",
            "nodes",
            "PBN bytes",
            "arrays/type B",
            "arrays/node B",
            "per-type overhead %",
            "per-node overhead %",
        ],
        notes=[
            "expected shape: per-type storage is negligible (the paper's "
            "point in Section 5); storing arrays per node would roughly "
            "double number storage (the paper's stated worst case)"
        ],
    )
    datasets = [
        ("books(500)", books_document(500, seed=5), Q.BOOKS_INVERT.spec),
        ("auction(300)", auction_document(300, seed=5), Q.AUCTION_FLAT.spec),
        ("dblp(500)", dblp_document(500, seed=5), Q.DBLP_BY_AUTHOR.spec),
    ]
    for name, document, spec in datasets:
        vdoc = VirtualDocument.from_spec(document, spec)
        vguide = vdoc.vguide
        nodes = sum(1 for root in document.children for _ in root.iter_subtree())
        pbn_bytes = sum(
            encoded_size(node.pbn)
            for root in document.children
            for node in root.iter_subtree()
        )
        per_type = sum(2 * len(vtype.level_array) for vtype in vguide.iter_vtypes())
        per_node = sum(
            2 * len(vtype.level_array) * len(vdoc.reachable_instances(vtype))
            for vtype in vguide.iter_vtypes()
        )
        table.rows.append(
            [
                name,
                nodes,
                pbn_bytes,
                per_type,
                per_node,
                seconds(per_type / pbn_bytes * 100),
                seconds(per_node / pbn_bytes * 100),
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E6 — virtual value construction
# ---------------------------------------------------------------------------


@experiment("e6")
def e6_values() -> list[Table]:
    """Range stitching vs element-by-element value construction."""
    table = Table(
        "e6",
        "transformed values of every book: splice intact ranges vs construct",
        [
            "books",
            "value chars",
            "splice ms",
            "construct ms",
            "speedup",
            "ranges",
            "elements built",
        ],
        notes=[
            "spec 'book { ** }' keeps book subtrees intact, so the writer "
            "reads one range per book; the construct arm materializes the "
            "view and serializes the copy, walking every node — expected "
            "shape: speedup grows with subtree size"
        ],
    )
    for books in (50, 200, 800):
        engine = Engine()
        engine.load("book.xml", books_document(books, seed=6))
        vdoc = engine.virtual("book.xml", "book { ** }")
        roots = vdoc.roots()

        def splice(stats: ValueStats) -> str:
            parts: list[str] = []
            for vnode in roots:
                write(vnode, parts, stats)
            return "".join(parts)

        splice_s = best_of(lambda: splice(ValueStats()))
        construct_s = best_of(lambda: serialize(vdoc.materialize()))
        stats = ValueStats()
        table.rows.append(
            [
                books,
                len(splice(stats)),
                seconds(splice_s * 1e3),
                seconds(construct_s * 1e3),
                seconds(construct_s / splice_s),
                stats.spliced_ranges,
                sum(
                    node.kind is NodeKind.ELEMENT
                    for node in vdoc.materialize().iter_subtree()
                ),
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E7 — the three transformation cases
# ---------------------------------------------------------------------------


@experiment("e7")
def e7_cases() -> list[Table]:
    """All three Algorithm 1 cases: correct results, comparable cost."""
    document = books_document(200, seed=7)
    engine = Engine()
    engine.load("book.xml", document)
    cases = [
        ("case 1: descendant->child", "book { name }", "//book/name"),
        ("case 2: ancestor->child", "name { author }", "//name/author"),
        ("case 3: lca-related", "title { author }", "//title/author"),
    ]
    table = Table(
        "e7",
        "transformation cases over books(200)",
        ["case", "spec", "results", "virtual ms", "matches materialized"],
        notes=["expected shape: all three cases correct, same cost regime"],
    )
    for label, spec, path in cases:
        query = f'virtualDoc("book.xml", "{spec}"){path}'
        result = engine.execute(query)
        elapsed = best_of(lambda: engine.execute(query))
        vdoc = engine.virtual("book.xml", spec)
        mat_engine = Engine()
        store, _ = materialize_to_store(vdoc, "mat.xml")
        mat_engine.attach("mat.xml", store)
        expected = mat_engine.execute(f'doc("mat.xml"){path}')
        matches = sorted(set(result.values())) == sorted(set(expected.values()))
        table.rows.append(
            [label, spec, len(result), seconds(elapsed * 1e3), matches]
        )
    return [table]


# ---------------------------------------------------------------------------
# E8 — the Sam + Rhonda pipeline
# ---------------------------------------------------------------------------


@experiment("e8")
def e8_pipeline() -> list[Table]:
    """Nested query vs virtualDoc vs two-pass for the paper's Section 2
    pipeline (list authors per title, then count them)."""
    table = Table(
        "e8",
        "Sam+Rhonda pipeline (count authors per title)",
        ["books", "nested-query ms", "virtualDoc ms", "two-pass ms", "all equal"],
        notes=[
            "expected shape: virtualDoc cheapest (no intermediate "
            "construction); nested pays constructor cost; two-pass pays "
            "serialize+reparse on top"
        ],
    )
    for books in (100, 400):
        engine = Engine()
        engine.load("book.xml", books_document(books, seed=8))
        sam = (
            'for $t in doc("book.xml")//book/title let $a := $t/../author '
            "return <title>{$t/text()}{$a}</title>"
        )
        nested = (
            f"for $t in ({sam})//self::title "
            "return <count>{count($t/author)}</count>"
        )
        virtual = (
            'for $t in virtualDoc("book.xml", "title { author { name } }")//title '
            "return <count>{count($t/author)}</count>"
        )
        vdoc = engine.virtual("book.xml", "title { author { name } }")  # warm view
        nested_s = best_of(lambda: engine.execute(nested), repeat=2)
        virtual_s = best_of(lambda: engine.execute(virtual), repeat=2)
        twopass_result, twopass_cost = two_pass_pipeline(
            vdoc,
            'for $t in doc("t.xml")//title return <count>{count($t/author)}</count>',
            uri="t.xml",
        )
        nested_values = engine.execute(nested).values()
        virtual_values = engine.execute(virtual).values()
        equal = nested_values == virtual_values == twopass_result.values()
        table.rows.append(
            [
                books,
                seconds(nested_s * 1e3),
                seconds(virtual_s * 1e3),
                seconds(twopass_cost.total_seconds * 1e3),
                equal,
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E9 — logical I/O
# ---------------------------------------------------------------------------


@experiment("e9")
def e9_io() -> list[Table]:
    """Page I/O to answer a value query: reuse the extant heap+indexes
    (vPBN) vs build a new heap and indexes (materialize)."""
    books = 500
    engine = Engine(buffer_capacity=8)
    document = books_document(books, seed=9)
    engine.load("book.xml", document)
    spec = Q.BOOKS_INVERT.spec
    vdoc = engine.virtual("book.xml", spec)

    table = Table(
        "e9",
        f"logical I/O for 'values of 10 titles and their authors' on books({books})",
        ["strategy", "page writes", "page reads", "bytes read", "index entries built"],
        notes=[
            "virtual touches only the pages holding the ten matched ranges; "
            "materialization writes a whole new heap and rebuilds both "
            "indexes before reading anything"
        ],
    )

    # Strategy 1: virtual — query + stitch values from the original heap.
    engine.reset_stats()
    engine.cold_caches()
    result = engine.execute(
        f'(virtualDoc("book.xml", "{spec}")//title)[position() <= 10]'
    )
    result.to_xml()
    virtual_stats = engine.stats.snapshot()
    table.rows.append(
        [
            "virtual (vPBN)",
            virtual_stats["page_writes"],
            virtual_stats["page_reads"],
            virtual_stats["bytes_read"],
            0,
        ]
    )

    # Strategy 2: materialize — new heap + new indexes, then read values.
    from repro.storage.stats import StorageStats

    mat_stats = StorageStats()
    mat_store, _ = materialize_to_store(vdoc, "mat.xml", stats=mat_stats, buffer_capacity=8)
    mat_store.buffer_pool.clear()
    mat_engine = Engine()
    mat_engine.attach("mat.xml", mat_store)
    titles = mat_engine.execute('(doc("mat.xml")//title)[position() <= 10]')
    for node in titles:
        mat_store.value_of(node.pbn)
    snapshot = mat_stats.snapshot()
    table.rows.append(
        [
            "materialize + renumber",
            snapshot["page_writes"],
            snapshot["page_reads"],
            snapshot["bytes_read"],
            len(mat_store.value_index) + len(mat_store.type_index),
        ]
    )
    return [table]


# ---------------------------------------------------------------------------
# E10 — ablation: query rewriting vs vPBN
# ---------------------------------------------------------------------------


@experiment("e10")
def e10_rewrite() -> list[Table]:
    """The "rewrite the query" alternative (paper Section 1, solution 2)
    on its best terrain — predicate-free location paths — vs vPBN."""
    from repro.transform.rewrite import RewriteError, rewrite_query

    engine = Engine()
    engine.load("book.xml", books_document(300, seed=10))
    cases = [
        ("chain", 'virtualDoc("book.xml", "title { author { name } }")'
                  "//title/author/name/text()"),
        ("descendant", 'virtualDoc("book.xml", "title { author { name } }")//name'),
        ("inversion", 'virtualDoc("book.xml", "name { author }")//name/author'),
        ("with predicate", 'virtualDoc("book.xml", "title { author }")'
                           '//title[author]'),
        ("constructor", 'for $t in virtualDoc("book.xml", "title { author }")//title '
                        "return <t>{$t}</t>"),
    ]
    table = Table(
        "e10",
        "query rewriting vs vPBN over books(300)",
        ["query", "rewritable", "virtual ms", "rewritten ms", "note"],
        notes=[
            "rewriting handles predicate-free downward paths; predicates, "
            "ordering, and constructors need the transformed space — the "
            "paper's argument for operating on numbers instead"
        ],
    )
    for label, query in cases:
        virtual_s = best_of(lambda: engine.execute(query))
        try:
            rewritten = rewrite_query(query, engine)
            rewritten_s = best_of(lambda: engine.execute(rewritten))
            # Rewriting returns the right stored nodes, but any *value* a
            # query consumes (inverted subtrees, constructor embeddings)
            # stays physical — the transformed value problem of Section 2.
            note = (
                "nodes match; values stay physical"
                if label in ("inversion", "constructor")
                else ""
            )
            table.rows.append(
                [label, True, seconds(virtual_s * 1e3), seconds(rewritten_s * 1e3), note]
            )
        except RewriteError as error:
            table.rows.append(
                [label, False, seconds(virtual_s * 1e3), "-", str(error)[:46]]
            )
    return [table]


# ---------------------------------------------------------------------------
# E11 — ablation: insert cost, renumbering vs ORDPATH careting
# ---------------------------------------------------------------------------


@experiment("e11")
def e11_updates() -> list[Table]:
    """Why stable numbers matter: per-insert cost of renumber-on-insert vs
    ORDPATH-style careting (paper Section 3's orthogonal-updates remark)."""
    from repro.pbn.ordpath import after, before, between, initial_numbering
    from repro.pbn.assign import assign_numbers
    from repro.xmlmodel.builder import elem

    table = Table(
        "e11",
        "100 random-position sibling inserts: renumber vs ORDPATH careting",
        [
            "initial siblings",
            "renumber total ms",
            "ordpath total ms",
            "speedup",
            "max number length",
        ],
        notes=[
            "renumbering touches every node per insert (and would "
            "invalidate vPBN's reuse of extant numbers); careting touches "
            "none, paying only slow component growth in hot spots"
        ],
    )
    for siblings in (100, 400, 1600):
        rng = random.Random(siblings)
        positions = [rng.random() for _ in range(100)]

        # Strategy A: plain PBN, re-assign numbers after each insert.
        document = Document("u")
        root = elem("data")
        document.append(root)
        for _ in range(siblings):
            root.append(elem("x"))
        assign_numbers(document)

        def renumber_inserts():
            for fraction in positions:
                index = int(fraction * len(root.children))
                root.children.insert(index, elem("x"))
                root.children[index].parent = root
                assign_numbers(document)

        renumber_s = best_of(renumber_inserts, repeat=1)

        # Strategy B: ORDPATH numbers, mint between neighbours.
        def ordpath_inserts():
            numbers = initial_numbering(siblings)
            for fraction in positions:
                index = int(fraction * len(numbers))
                if index == 0:
                    new = before(numbers[0])
                elif index >= len(numbers):
                    new = after(numbers[-1])
                else:
                    new = between(numbers[index - 1], numbers[index])
                numbers.insert(index, new)
            return numbers

        ordpath_s = best_of(ordpath_inserts, repeat=1)
        numbers = ordpath_inserts()
        table.rows.append(
            [
                siblings,
                seconds(renumber_s * 1e3),
                seconds(ordpath_s * 1e3),
                seconds(renumber_s / ordpath_s),
                max(len(n.raw) for n in numbers),
            ]
        )
    return [table]


# ---------------------------------------------------------------------------
# E12 — index reuse: keyword search through the virtual hierarchy
# ---------------------------------------------------------------------------


@experiment("e12")
def e12_text_search() -> list[Table]:
    """Section 4.3's index argument, live: the keyword index references
    nodes by PBN number, so a virtual transformation can keep using it
    (vDescendant checks against postings), while materialization must
    rebuild it before the first search."""
    books = 500
    engine = Engine()
    engine.load("book.xml", books_document(books, seed=12))
    store = engine.store("book.xml")
    _ = store.text_index  # built once, on the original document
    spec = Q.BOOKS_INVERT.spec
    vdoc = engine.virtual("book.xml", spec)
    term = "codd"

    query_virtual = (
        f'virtualDoc("book.xml", "{spec}")'
        f'//title[contains-text(., "{term}")]'
    )
    virtual_s = best_of(lambda: engine.execute(query_virtual))
    virtual_hits = len(engine.execute(query_virtual))

    def materialize_and_search():
        mat_store, _ = materialize_to_store(vdoc, "mat.xml")
        mat_engine = Engine()
        mat_engine.attach("mat.xml", mat_store)
        # First search triggers the index rebuild over the new numbers.
        return mat_engine.execute(
            f'doc("mat.xml")//title[contains-text(., "{term}")]'
        )

    materialize_s = best_of(materialize_and_search, repeat=1)
    materialized_hits = len(materialize_and_search())

    table = Table(
        "e12",
        f"keyword search '{term}' through the title{{author}} view, books({books})",
        ["strategy", "hits", "ms", "index entries built"],
        notes=[
            "the virtual strategy answers from the index built over the "
            "original numbers; materialization renumbers, so the keyword "
            "index (keyed by PBN) must be rebuilt before the first search"
        ],
    )
    table.rows.append(
        ["virtual (reuse index)", virtual_hits, seconds(virtual_s * 1e3), 0]
    )
    mat_store, _ = materialize_to_store(vdoc, "mat.xml")
    rebuilt = len(mat_store.text_index)
    table.rows.append(
        [
            "materialize + reindex",
            materialized_hits,
            seconds(materialize_s * 1e3),
            rebuilt,
        ]
    )
    return [table]
