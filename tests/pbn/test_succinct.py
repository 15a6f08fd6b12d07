"""Succinct column codecs: randomized differentials against the raw
column, prefix sums under interleaved updates, raggedness fallbacks, and
the engine-level aggregation fast path they back."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.pbn.columnar import Column, subtree_bound
from repro.pbn.succinct import (
    CODECS,
    MIN_ENCODED_ROWS,
    PackedColumn,
    PrefixSums,
    SuccinctColumn,
    build_column,
    default_codec,
    packable,
    set_default_codec,
)
from repro.query.engine import Engine
from repro.query.eval import Evaluator


def _random_keys(rng: random.Random, n: int, width: int, magnitude: int) -> list:
    universe = max(magnitude, 3)
    while universe**width < 4 * MIN_ENCODED_ROWS:
        universe *= 4
    n = min(n, universe**width // 2)
    keys = set()
    while len(keys) < n:
        keys.add(tuple(rng.randrange(universe) for _ in range(width)))
    return sorted(keys)


def _probes(rng: random.Random, keys: list, width: int, magnitude: int) -> list:
    """Existing keys, perturbed keys, prefixes, and fraction/inf shapes."""
    probes = []
    for _ in range(12):
        key = rng.choice(keys)
        probes.append(key)
        probes.append(tuple(max(0, c + rng.randint(-2, 2)) for c in key))
        probes.append(key[: rng.randint(0, width)])
        probes.append(subtree_bound(key[: rng.randint(1, width)]))
        probes.append(key + (rng.randrange(magnitude + 1),))
        probes.append((Fraction(3, 2),) + key[1:])
    probes.append(())
    probes.append((magnitude * 2,) * width)
    return probes


@pytest.mark.parametrize("codec", ["packed", "succinct"])
def test_codecs_match_raw_reference(codec):
    """bounds / prefix_bounds / lower / row_of / keys agree with the raw
    column on randomized key sets, including windowed (lo, hi) probes and
    fraction / inf components that defeat the packed probe path."""
    rng = random.Random(20210)
    for trial in range(25):
        width = rng.randint(1, 5)
        magnitude = rng.choice([4, 30, 1000, 1 << 20, 1 << 40])
        keys = _random_keys(rng, rng.randint(MIN_ENCODED_ROWS, 120), width, magnitude)
        raw = Column(keys)
        encoded = build_column(keys, codec)
        if codec == "succinct" and type(encoded) is PackedColumn:
            # A wide packed universe legitimately degrades to packed —
            # but never all the way back to raw tuples.
            assert width * magnitude.bit_length() > 64
        else:
            assert type(encoded) is CODECS[codec], f"trial {trial} fell back"
        assert list(encoded.keys) == keys
        assert encoded.keys == keys  # view equality
        assert len(encoded.keys) == len(keys)
        assert encoded.width == raw.width
        assert encoded.nbytes < raw.nbytes
        lo = rng.randint(0, len(keys))
        hi = rng.randint(lo, len(keys))
        for probe in _probes(rng, keys, width, magnitude):
            context = f"trial={trial} codec={codec} probe={probe!r}"
            assert encoded.lower(probe) == raw.lower(probe), context
            assert encoded.lower(probe, lo, hi) == raw.lower(probe, lo, hi), context
            assert encoded.prefix_bounds(probe) == raw.prefix_bounds(probe), context
            assert encoded.prefix_bounds(probe, lo, hi) == raw.prefix_bounds(
                probe, lo, hi
            ), context
            assert encoded.row_of(probe) == raw.row_of(probe), context
        low_key, high_key = sorted(
            (rng.choice(keys), subtree_bound(rng.choice(keys)))
        )[:2]
        assert encoded.bounds(low_key, high_key) == raw.bounds(low_key, high_key)
        a = rng.randint(0, len(keys))
        b = rng.randint(a, len(keys))
        assert encoded.keys[a:b] == keys[a:b]
        assert encoded.keys[rng.randrange(len(keys))] in keys


def test_key_views_support_negative_index_and_iter():
    keys = [(i, i % 3) for i in range(20)]
    for codec in ("packed", "succinct"):
        column = build_column(keys, codec)
        assert column.keys[-1] == keys[-1]
        assert list(iter(column.keys)) == keys
        with pytest.raises(IndexError):
            build_column(keys, "succinct").keys[len(keys)]


def test_fraction_keys_stay_raw():
    """Careted ordinals mint Fraction components; those columns must fall
    back to raw tuples under every codec request."""
    keys = sorted(
        [(1, i) for i in range(1, 10)] + [(1, Fraction(3, 2))],
        key=lambda key: tuple(map(float, key)),
    )
    assert not packable(keys)
    for codec in ("packed", "succinct", None):
        column = build_column(keys, codec)
        assert type(column) is Column
        assert column.keys == keys


def test_ragged_and_short_columns_stay_raw():
    ragged = [(1,), (1, 2), (1, 3)]
    assert not packable(ragged)
    assert type(build_column(ragged, "succinct")) is Column
    short = [(i,) for i in range(MIN_ENCODED_ROWS - 1)]
    assert not packable(short)
    assert type(build_column(short, "succinct")) is Column
    assert packable([(i,) for i in range(MIN_ENCODED_ROWS)])


def test_wide_universe_degrades_succinct_to_packed():
    """When the packed universe outruns the Elias-Fano cell split (deep
    trees of huge ordinals), a succinct request degrades to packed —
    never to a crash, never to raw."""
    rng = random.Random(7)
    keys = sorted(
        {(rng.randrange(1 << 45), rng.randrange(1 << 45)) for _ in range(32)}
    )
    column = build_column(keys, "succinct")
    assert type(column) is PackedColumn
    raw = Column(keys)
    for key in keys:
        assert column.row_of(key) == raw.row_of(key)
        assert column.prefix_bounds(key[:1]) == raw.prefix_bounds(key[:1])


def test_codec_registry_round_trip():
    assert default_codec() in CODECS
    previous = set_default_codec("raw")
    try:
        keys = [(i,) for i in range(20)]
        assert type(build_column(keys)) is Column
        assert set_default_codec("packed") == "raw"
        assert type(build_column(keys)) is PackedColumn
        with pytest.raises(ValueError):
            set_default_codec("zstd")
    finally:
        set_default_codec(previous)


@pytest.mark.parametrize("block_bits", [1, 3, 6])
def test_prefix_sums_match_naive_model(block_bits):
    """Randomized interleaved append / point-update / query differential
    against a plain list."""
    rng = random.Random(block_bits * 101)
    model: list[int] = []
    sums = PrefixSums(block_bits=block_bits)
    for _ in range(600):
        action = rng.random()
        if action < 0.45 or not model:
            value = rng.randint(-50, 50)
            model.append(value)
            sums.append(value)
        elif action < 0.7:
            i = rng.randrange(len(model))
            delta = rng.randint(-20, 20)
            model[i] += delta
            sums.add(i, delta)
        else:
            i = rng.randint(0, len(model))
            assert sums.prefix(i) == sum(model[:i])
            j = rng.randint(0, len(model))
            lo, hi = min(i, j), max(i, j)
            assert sums.range_sum(lo, hi) == sum(model[lo:hi])
    assert len(sums) == len(model)
    assert sums.total() == sum(model)
    assert [sums.get(i) for i in range(len(model))] == model
    assert sums.nbytes > 0
    seeded = PrefixSums(model, block_bits=block_bits)
    assert seeded.total() == sum(model)
    assert seeded.prefix(len(model) // 2) == sum(model[: len(model) // 2])


# ---------------------------------------------------------------------------
# engine level: identity across codecs and the aggregation fast path
# ---------------------------------------------------------------------------

_AGG_XML = (
    "<data>"
    + "".join(
        f"<book><title>T{i}</title><price>{p}</price>"
        + "".join(f"<author><name>A{j}</name></author>" for j in range(1 + i % 3))
        + "</book>"
        for i, p in enumerate([30, 12, 55, 7, 99, 41, 18, 63, 27, 5])
    )
    + "<junk><price>not-a-number</price></junk>"
    + "</data>"
)

_AGG_QUERIES = [
    "count(doc('b.xml')//book)",
    "count(doc('b.xml')/data/book/author)",
    "count(doc('b.xml')/data/book[price < 40]/author)",
    "sum(doc('b.xml')//book/price)",
    "sum(doc('b.xml')//price)",  # NaN-poisoned by the junk price
    "sum(doc('b.xml')//title)",  # every value NaN
    "sum(doc('b.xml')//no-such)",  # empty sum is the int 0
    "count(doc('b.xml')//no-such)",
    'count(virtualDoc("b.xml", "title { author { name } }")//title/author)',
    'sum(virtualDoc("b.xml", "data.book.price")/price)',
]


def _run_aggregates(strategy: str) -> list:
    engine = Engine(mode=strategy)
    engine.load("b.xml", _AGG_XML)
    return [tuple(engine.execute(query).values()) for query in _AGG_QUERIES]


def test_aggregate_fast_path_matches_scalar(strategies_agree):
    """count()/sum() answers are byte-identical across every strategy with
    batch kernels (and the prefix-sum aggregation path) on and off."""
    baseline = None
    try:
        for use_batch in (False, True):
            Evaluator.use_batch_kernels = use_batch
            payload = strategies_agree(
                _run_aggregates,
                ("tree", "indexed", "sql"),
                context=f"use_batch_kernels={use_batch}",
            )
            if baseline is None:
                baseline = payload
            assert payload == baseline
    finally:
        Evaluator.use_batch_kernels = True


def test_aggregate_fast_path_actually_engages():
    """The indexed strategy must answer plain count()/sum() paths from run
    bounds (metrics: engine.kernel{kernel="prefix-sum"}), not by
    materializing."""
    outcomes = {"prefix-sum": 0}

    class _Metrics:
        def incr(self, name, value=1, labels=None):
            if name == "engine.kernel" and labels["kernel"] == "prefix-sum":
                outcomes["prefix-sum"] += 1

        def observe(self, *args, **kwargs):
            pass

    engine = Engine(mode="indexed")
    engine.metrics = _Metrics()
    engine.load("b.xml", _AGG_XML)
    assert engine.execute("count(doc('b.xml')//book)").values() == ["10"]
    assert engine.execute("sum(doc('b.xml')//book/price)").values() == ["357"]
    assert engine.execute("sum(doc('b.xml')//price)").values() == ["NaN"]
    assert outcomes["prefix-sum"] == 3


def test_raw_and_succinct_engines_answer_identically():
    """Same engine-visible answers whether the type index encodes columns
    or keeps raw tuples (``packed`` included; the differential suites carry
    the raw-vs-succinct arm over larger documents)."""
    queries = _AGG_QUERIES + [
        "doc('b.xml')//book[price > 30]/title",
        "doc('b.xml')/data/book[2]/author/name",
        "doc('b.xml')//author/preceding-sibling::title",
    ]

    def answers() -> list:
        engine = Engine(mode="indexed")
        engine.load("b.xml", _AGG_XML)
        return [
            (result.to_xml(), tuple(result.values()))
            for result in map(engine.execute, queries)
        ]

    previous = set_default_codec("raw")
    try:
        raw_answers = answers()
        set_default_codec("succinct")
        succinct_answers = answers()
        set_default_codec("packed")
        packed_answers = answers()
    finally:
        set_default_codec(previous)
    assert succinct_answers == raw_answers
    assert packed_answers == raw_answers


def test_careted_store_columns_fall_back_and_stay_correct():
    """A before-insert mints rational components (updates/careting); the
    touched type's rebuilt column must degrade to raw tuples and keep
    answering prefix probes correctly."""
    from repro.pbn.number import Pbn
    from repro.storage.store import DocumentStore
    from repro.updates.mutations import apply_op, verify_store
    from repro.updates.ops import InsertSubtree
    from repro.xmlmodel.parser import parse_document

    xml = "<doc>" + "".join(f"<i>{k}</i>" for k in range(10)) + "</doc>"
    store = DocumentStore(parse_document(xml, "t.xml"))
    i_type = next(t for t in store.guide.iter_types() if t.name == "i")
    encoded = store.type_index.column(store.type_id(i_type))
    assert type(encoded) is SuccinctColumn  # ten clean siblings encode

    result = apply_op(
        store,
        InsertSubtree(parent=Pbn.parse("1"), fragment="<i>x</i>", before=Pbn.parse("1.1")),
    )
    verify_store(result.store)
    derived_type = next(
        t for t in result.store.guide.iter_types() if t.name == "i"
    )
    column = result.store.type_index.column(result.store.type_id(derived_type))
    assert type(column) is Column  # the minted rational defeats packing
    assert len(column.keys) == 11
    first = column.keys[0]
    assert column.prefix_bounds((1,)) == (0, 11)
    assert column.row_of(first) == 0
    assert store.stats.column_bytes > 0


def test_column_bytes_accumulates_in_storage_stats():
    from repro.storage.store import DocumentStore
    from repro.xmlmodel.parser import parse_document

    store = DocumentStore(parse_document(_AGG_XML, "b.xml"))
    assert store.stats.column_bytes == 0
    book_type = next(t for t in store.guide.iter_types() if t.name == "book")
    column = store.type_index.column(store.type_id(book_type))
    assert store.stats.column_bytes == column.nbytes
    title_type = next(t for t in store.guide.iter_types() if t.name == "title")
    title_column = store.type_index.column(store.type_id(title_type))
    assert store.stats.column_bytes == column.nbytes + title_column.nbytes


def test_succinct_columns_are_at_least_4x_smaller_than_raw(each_codec):
    """The space claim as byte counts, which repeat exactly: every type
    column of one books document, built under each codec."""
    from repro.storage.store import DocumentStore
    from repro.workloads.books import books_document

    column_bytes = {}
    for codec in each_codec():
        store = DocumentStore(books_document(256, seed=2))
        for type_id in range(len(store.types_by_id)):
            store.type_index.column(type_id)
        column_bytes[codec] = store.stats.column_bytes
    assert column_bytes["raw"] >= 4 * column_bytes["succinct"] > 0, column_bytes
