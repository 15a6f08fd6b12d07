"""Succinct PBN column codecs.

Columns today hold python tuples of component tuples; at the ROADMAP's
"millions of documents" scale memory is the wall before CPU is.  This
module adds two bit-packed encodings behind a codec registry, each
exposing the exact :class:`~repro.pbn.columnar.Column` API (``keys`` is a
decoding sequence view, so every merge-join kernel and CAS projection
runs unchanged over either representation):

``packed``
    One minimal-cell-width ``array`` per component position (``'B'`` /
    ``'H'`` / ``'I'`` / ``'Q'`` chosen from the position's maximum).
    Decoding a row is a tuple of array reads; decoding a run is one
    ``zip`` over array slices, at C speed.

``succinct``
    The keys of a type are fixed width and sorted, so each key packs into
    a single integer (component ``j`` shifted into its own bit field) and
    the packed sequence is *monotone* — exactly the shape Elias-Fano
    compresses to ``~2 + log2(universe/n)`` bits per key.  The encoding
    splits each packed value into ``low_bits`` explicit low bits and a
    high part stored as a bucket directory (the select0-materialized form
    of the classic unary upper bitvector), so both directions are fast:

    * **select** (row -> key): the directory names the row's high-part
      bucket, a byte-aligned read recovers the low bits — random access
      without touching neighbours;
    * **rank** (key -> row): two directory reads bound the high-part
      bucket, a C-speed bisect over the low bits finds the row —
      ``lower`` / ``prefix_bounds`` / ``row_of`` become O(1)-ish bucket
      probes instead of ``log n`` tuple comparisons.

``raw``
    The tuple-backed :class:`~repro.pbn.columnar.Column` itself — and the
    *fallback* the raggedness heuristic picks whenever careted ordinals
    defeat fixed-width packing: ORDPATH-style updates mint
    :class:`~fractions.Fraction` components (see ``updates/careting``),
    which have no fixed-width bit representation.  (Tropashko's
    nested-intervals continued-fraction encoding, arXiv cs/0402051, is
    the candidate codec for *those* columns; until it lands, rational or
    ragged columns simply stay tuples.)

Every column variant reports :attr:`~repro.pbn.columnar.Column.nbytes`,
the encoding's heap footprint, which the owning indexes accumulate into
``StorageStats.column_bytes`` — the benchmark's
``pbn.column_bytes_per_node`` row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from repro.pbn.columnar import Column, Key

#: Columns shorter than this stay raw: the encodings' fixed overhead
#: (directories, per-position arrays) would exceed the tuples they replace.
MIN_ENCODED_ROWS = 8


# ---------------------------------------------------------------------------
# Elias-Fano over a monotone integer sequence
# ---------------------------------------------------------------------------


class _EliasFano:
    """Elias-Fano encoding of a non-decreasing sequence of non-negative
    ints: explicit low halves plus a bucket directory over the high
    halves.

    The classic layout stores ``floor(log2(universe/n))`` explicit low
    bits per value; this one rounds the split up to the next machine cell
    (8/16/32/64 bits) so the low halves live in a C ``array`` — random
    low reads are one subscript and bulk decodes are C-speed slices, for
    at most 7 extra bits per key.  The widened split also collapses the
    high halves onto a small range (``top_high <= n`` by the choice of
    split), so instead of the textbook unary upper bitvector we store its
    select0 directory directly: ``starts[h]`` is the index of the first
    value whose high part is >= ``h``.  The two carry identical
    information (``starts[h] = select0(h-1) - h + 1``); the explicit form
    makes every bucket probe two C-array reads and ``next_geq`` a single
    ``bisect_left`` over the low array."""

    __slots__ = ("n", "low_bits", "_mask", "_low", "_starts", "_top_high")

    def __init__(self, values: Sequence[int], universe_bits: int) -> None:
        n = len(values)
        self.n = n
        optimal = max(1, universe_bits - max(1, (n - 1).bit_length()))
        if optimal > 64:
            # The bucket directory would need ~2^(optimal-64) slots per key.
            raise ValueError("universe too wide for Elias-Fano cell split")
        for low_bits, typecode in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
            if optimal <= low_bits:
                break
        self.low_bits = low_bits
        mask = (1 << low_bits) - 1
        self._mask = mask
        self._low = array(typecode, (value & mask for value in values))

        # High halves: starts[h] = count of values with high part < h,
        # i.e. the row where bucket h begins; starts[top_high + 1] == n.
        top_high = (values[-1] >> low_bits) if n else 0
        self._top_high = top_high
        counts = [0] * (top_high + 2)
        for value in values:
            counts[(value >> low_bits) + 1] += 1
        for h in range(1, top_high + 2):
            counts[h] += counts[h - 1]
        for start_code in ("B", "H", "I", "Q"):
            if n <= (1 << (8 * array(start_code).itemsize)) - 1:
                break
        self._starts = array(start_code, counts)

    # -- access / search ---------------------------------------------------

    def access(self, i: int) -> int:
        """The i-th value: locate its bucket in the directory (the
        largest ``h`` with ``starts[h] <= i``), reattach the low half."""
        high = bisect_right(self._starts, i) - 1
        return (high << self.low_bits) | self._low[i]

    def next_geq(self, value: int) -> int:
        """Index of the first value >= ``value`` (``n`` when none is):
        the directory bounds the high-part bucket, one C-speed bisect
        over the low array finds the row within it."""
        high = value >> self.low_bits
        if high > self._top_high:
            return self.n
        starts = self._starts
        return bisect_left(
            self._low, value & self._mask, starts[high], starts[high + 1]
        )

    def range_geq(self, first: int, second: int) -> tuple[int, int]:
        """``(next_geq(first), next_geq(second))`` for ``first <=
        second``; when both probes land in one bucket (the common case
        for prefix runs) the second bisect starts at the first's row."""
        low_bits = self.low_bits
        low = self._low
        starts = self._starts
        high1 = first >> low_bits
        if high1 > self._top_high:
            return (self.n, self.n)
        end1 = starts[high1 + 1]
        row1 = bisect_left(low, first & self._mask, starts[high1], end1)
        high2 = second >> low_bits
        if high2 == high1:
            return (row1, bisect_left(low, second & self._mask, row1, end1))
        if high2 > self._top_high:
            return (row1, self.n)
        return (
            row1,
            bisect_left(
                low, second & self._mask, starts[high2], starts[high2 + 1]
            ),
        )

    def values_range(self, lo: int, hi: int) -> list[int]:
        """Decode values ``[lo, hi)`` sequentially, bucket by bucket:
        each bucket contributes one C-array slice of low halves under a
        constant high base — the bulk-decode path behind column slices."""
        if hi <= lo:
            return []
        low_bits = self.low_bits
        low = self._low
        starts = self._starts
        out: list[int] = []
        extend = out.extend
        high = bisect_right(starts, lo) - 1
        i = lo
        while i < hi:
            while starts[high + 1] <= i:
                high += 1
            end = starts[high + 1] if starts[high + 1] < hi else hi
            base = high << low_bits
            extend(base | value for value in low[i:end])
            i = end
        return out

    @property
    def nbytes(self) -> int:
        return (
            self._low.itemsize * len(self._low)
            + self._starts.itemsize * len(self._starts)
            + 96
        )


# ---------------------------------------------------------------------------
# decoding key views (what kernels see as ``column.keys``)
# ---------------------------------------------------------------------------


class _PackedKeys:
    """Sequence view decoding per-position arrays back to key tuples."""

    __slots__ = ("_cols",)

    def __init__(self, cols: list[array]) -> None:
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, index):
        cols = self._cols
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(cols[0]))
            if step != 1:
                return list(zip(*(col[index] for col in cols)))
            return list(zip(*(col[lo:hi] for col in cols)))
        return tuple(col[index] for col in cols)

    def __iter__(self):
        return iter(zip(*self._cols))

    def __eq__(self, other):
        return _keys_equal(self, other)

    __hash__ = None


def _keys_equal(view, other) -> bool:
    """Element-wise equality against any key sequence (the decoding views
    stand in for the raw posting list in tests and diffs)."""
    try:
        if len(view) != len(other):
            return False
    except TypeError:
        return NotImplemented
    return all(a == b for a, b in zip(view, other))


def _make_unpack(spec: tuple):
    """A packed-value -> key-tuple decoder specialized per width (a tuple
    display beats the generic genexp by ~2x on the bulk-decode path)."""
    if len(spec) == 1:
        ((s0, m0),) = spec
        return lambda v: ((v >> s0) & m0,)
    if len(spec) == 2:
        (s0, m0), (s1, m1) = spec
        return lambda v: ((v >> s0) & m0, (v >> s1) & m1)
    if len(spec) == 3:
        (s0, m0), (s1, m1), (s2, m2) = spec
        return lambda v: ((v >> s0) & m0, (v >> s1) & m1, (v >> s2) & m2)
    if len(spec) == 4:
        (s0, m0), (s1, m1), (s2, m2), (s3, m3) = spec
        return lambda v: (
            (v >> s0) & m0,
            (v >> s1) & m1,
            (v >> s2) & m2,
            (v >> s3) & m3,
        )
    if len(spec) == 5:
        (s0, m0), (s1, m1), (s2, m2), (s3, m3), (s4, m4) = spec
        return lambda v: (
            (v >> s0) & m0,
            (v >> s1) & m1,
            (v >> s2) & m2,
            (v >> s3) & m3,
            (v >> s4) & m4,
        )
    return lambda v: tuple((v >> shift) & mask for shift, mask in spec)


def _make_pack(spec: tuple):
    """A prefix-tuple -> packed-value encoder specialized per probe
    length, validating as it packs (``None`` when a component falls
    outside the packed domain: rationals, negatives, over-range ints).
    The mirror of :func:`_make_unpack`, for the probe side."""
    if len(spec) == 1:
        ((s0, m0),) = spec
        def pack(key):
            c0 = key[0]
            if type(c0) is int and 0 <= c0 <= m0:
                return c0 << s0
            return None
        return pack
    if len(spec) == 2:
        (s0, m0), (s1, m1) = spec
        def pack(key):
            c0, c1 = key
            if (
                type(c0) is int and 0 <= c0 <= m0
                and type(c1) is int and 0 <= c1 <= m1
            ):
                return (c0 << s0) | (c1 << s1)
            return None
        return pack
    if len(spec) == 3:
        (s0, m0), (s1, m1), (s2, m2) = spec
        def pack(key):
            c0, c1, c2 = key
            if (
                type(c0) is int and 0 <= c0 <= m0
                and type(c1) is int and 0 <= c1 <= m1
                and type(c2) is int and 0 <= c2 <= m2
            ):
                return (c0 << s0) | (c1 << s1) | (c2 << s2)
            return None
        return pack

    def pack(key):
        value = 0
        for component, (shift, mask) in zip(key, spec):
            if type(component) is not int or not 0 <= component <= mask:
                return None
            value |= component << shift
        return value

    return pack


class _SuccinctKeys:
    """Sequence view decoding Elias-Fano packed values back to key tuples."""

    __slots__ = ("_ef", "_unpack")

    def __init__(self, ef: _EliasFano, spec: tuple) -> None:
        self._ef = ef
        self._unpack = _make_unpack(spec)

    def __len__(self) -> int:
        return self._ef.n

    def __getitem__(self, index):
        ef = self._ef
        unpack = self._unpack
        if isinstance(index, slice):
            lo, hi, step = index.indices(ef.n)
            decoded = [unpack(value) for value in ef.values_range(lo, hi)]
            if step != 1:
                return decoded[::step]
            return decoded
        if index < 0:
            index += ef.n
        if not 0 <= index < ef.n:
            raise IndexError("column row out of range")
        return unpack(ef.access(index))

    def __iter__(self):
        unpack = self._unpack
        return iter([unpack(value) for value in self._ef.values_range(0, self._ef.n)])

    def __eq__(self, other):
        return _keys_equal(self, other)

    __hash__ = None


# ---------------------------------------------------------------------------
# column variants
# ---------------------------------------------------------------------------


class PackedColumn(Column):
    """Per-position minimal-cell-width arrays (the "delta" layout: each
    position stores its values in the smallest of ``B/H/I/Q`` that fits
    the position's maximum).  ~width bytes per key on PBN workloads
    versus ~(72 + 8*width) for tuples."""

    __slots__ = ("_cols",)

    def __init__(self, keys: Sequence[Key]) -> None:
        width = len(keys[0])
        cols: list[array] = []
        for position in range(width):
            top = max(key[position] for key in keys)
            typecode = (
                "B" if top < 256 else "H" if top < 65536 else "I" if top < 1 << 32 else "Q"
            )
            cols.append(array(typecode, (key[position] for key in keys)))
        self._cols = cols
        self.keys = _PackedKeys(cols)
        self.width = width
        self._packed = None
        self._nbytes = sum(col.itemsize * len(col) for col in cols) + 64 * (width + 1)


class SuccinctColumn(Column):
    """Elias-Fano over bit-field-packed keys.  Fixed width and sortedness
    make the packed values monotone, so the whole column compresses to a
    couple of bits plus ``low_bits`` per key; ``lower`` / ``prefix_bounds``
    / ``row_of`` run as select0 bucket probes on the packed integers
    (rank/select) instead of bisect over decoded tuples."""

    __slots__ = ("_ef", "_spec", "_shifts", "_packers")

    def __init__(self, keys: Sequence[Key]) -> None:
        width = len(keys[0])
        bits = [
            max(max(key[position] for key in keys), 1).bit_length()
            for position in range(width)
        ]
        shifts = [sum(bits[position + 1 :]) for position in range(width)]
        spec = tuple(
            (shifts[position], (1 << bits[position]) - 1) for position in range(width)
        )
        values = [
            sum(key[position] << shifts[position] for position in range(width))
            for key in keys
        ]
        self._ef = _EliasFano(values, sum(bits))
        self._spec = spec
        self._shifts = tuple(shifts)
        self._packers: dict = {}
        self.keys = _SuccinctKeys(self._ef, spec)
        self.width = width
        self._packed = None
        self._nbytes = self._ef.nbytes + 16 * width + 64

    def _packer(self, length: int):
        packer = self._packers.get(length)
        if packer is None:
            packer = self._packers[length] = _make_pack(self._spec[:length])
        return packer

    # -- packed probes -----------------------------------------------------

    def _probe_value(self, key: Key) -> Optional[int]:
        """The packed value of ``key`` zero-padded to full width; for a
        probe *longer* than the width, the packed truncation plus one
        (the first representable value strictly after every width-sized
        prefix of it).  ``None`` when a component falls outside the
        packed domain (rationals, the ``inf`` sentinel, negative or
        over-range ints) — callers fall back to decoded-tuple bisect."""
        spec = self._spec
        width = self.width
        value = 0
        for position, component in enumerate(key):
            if position >= width:
                return value + 1
            if type(component) is not int:
                return None
            shift, mask = spec[position]
            if component < 0 or component > mask:
                return None
            value += component << shift
        return value

    def lower(self, key: Key, lo: int = 0, hi: Optional[int] = None) -> int:
        n = self._ef.n
        if hi is None:
            hi = n
        value = self._probe_value(key)
        if value is None:
            return bisect_left(self.keys, key, lo, hi)
        return min(max(self._ef.next_geq(value), lo), hi)

    def prefix_bounds(
        self, prefix: Key, lo: int = 0, hi: Optional[int] = None
    ) -> tuple[int, int]:
        ef = self._ef
        if hi is None:
            hi = ef.n
        length = len(prefix)
        if not length:
            return (lo, hi)
        if length > self.width:
            return super().prefix_bounds(prefix, lo, hi)
        low_value = self._packer(length)(prefix)
        if low_value is None:
            return super().prefix_bounds(prefix, lo, hi)
        if length == self.width:
            high_value = low_value + 1
        else:
            high_value = low_value + (1 << self._shifts[length - 1])
        row1, row2 = ef.range_geq(low_value, high_value)
        low = min(max(row1, lo), hi)
        high = min(max(row2, low), hi)
        return (low, high)

    def row_of(self, key: Key) -> int:
        ef = self._ef
        if len(key) != self.width:
            return -1
        value = 0
        for position, component in enumerate(key):
            if type(component) is not int:
                return -1
            shift, mask = self._spec[position]
            if component < 0 or component > mask:
                return -1
            value += component << shift
        row = ef.next_geq(value)
        if row < ef.n and ef.access(row) == value:
            return row
        return -1

    # -- bulk run primitives -----------------------------------------------

    def prefix_runs(
        self, prefixes: Sequence[Key]
    ) -> tuple[list[tuple[int, int]], int]:
        """One packed-domain sweep for the whole (sorted, equal-length)
        prefix batch: the packer closure and every Elias-Fano attribute
        are hoisted out of the loop, and each probe is two bucket-bounded
        ``bisect_left`` calls — per-prefix cost on par with the raw
        column's windowed tuple bisects."""
        count = len(prefixes)
        if not count:
            return [], 0
        length = len(prefixes[0])
        width = self.width
        if not 0 < length <= width:
            return Column.prefix_runs(self, prefixes)
        pack = self._packer(length)
        span = 1 if length == width else 1 << self._shifts[length - 1]
        ef = self._ef
        low_bits = ef.low_bits
        mask = ef._mask
        low_array = ef._low
        starts = ef._starts
        top_high = ef._top_high
        n = ef.n
        bounds: list[tuple[int, int]] = []
        append = bounds.append
        cursor = 0
        for prefix in prefixes:
            value = pack(prefix) if len(prefix) == length else None
            if value is None:
                # Out-of-domain probe (rational component, over-range
                # int, ragged batch): decoded-tuple bisect, still windowed.
                low, high = Column.prefix_bounds(self, prefix, cursor)
            else:
                high1 = value >> low_bits
                if high1 > top_high:
                    low = high = n
                else:
                    bucket_hi = starts[high1 + 1]
                    low = bisect_left(
                        low_array, value & mask, starts[high1], bucket_hi
                    )
                    value2 = value + span
                    high2 = value2 >> low_bits
                    if high2 == high1:
                        high = bisect_left(
                            low_array, value2 & mask, low, bucket_hi
                        )
                    elif high2 > top_high:
                        high = n
                    else:
                        high = bisect_left(
                            low_array,
                            value2 & mask,
                            starts[high2],
                            starts[high2 + 1],
                        )
                if low < cursor:
                    low = cursor
                if high < low:
                    high = low
            cursor = high
            append((low, high))
        return bounds, count

    def key_runs(self, bounds: Sequence[tuple[int, int]]) -> list[Key]:
        """Bulk-decode all runs in one bucket walk: the directory pointer
        only moves forward while runs ascend (the kernels' output is
        sorted) and re-bisects on a backward jump, so locating a run's
        bucket costs amortized O(1) instead of a full directory search
        per tiny slice."""
        ef = self._ef
        unpack = self.keys._unpack
        low_bits = ef.low_bits
        low_array = ef._low
        starts = ef._starts
        out: list[Key] = []
        extend = out.extend
        high = -1
        prev = 0
        for lo, hi in bounds:
            if hi <= lo:
                continue
            if high < 0 or lo < prev:
                high = bisect_right(starts, lo) - 1
            i = lo
            while i < hi:
                while starts[high + 1] <= i:
                    high += 1
                end = starts[high + 1]
                if end > hi:
                    end = hi
                base = high << low_bits
                extend([unpack(base | value) for value in low_array[i:end]])
                i = end
            prev = hi
        return out


# ---------------------------------------------------------------------------
# the codec registry and raggedness heuristic
# ---------------------------------------------------------------------------

CODECS: dict[str, type] = {
    "raw": Column,
    "packed": PackedColumn,
    "succinct": SuccinctColumn,
}

_default_codec = "succinct"


def default_codec() -> str:
    """The codec :func:`build_column` encodes packable columns with."""
    return _default_codec


def set_default_codec(name: str) -> str:
    """Switch the registry default (``raw`` disables encoding entirely —
    the reference arm of the codec differential tests).  Returns the
    previous default."""
    global _default_codec
    if name not in CODECS:
        raise ValueError(f"unknown column codec {name!r} (have {sorted(CODECS)})")
    previous = _default_codec
    _default_codec = name
    return previous


def packable(keys: Sequence[Key]) -> bool:
    """The raggedness heuristic: bit-packing needs a fixed width, every
    component a plain non-negative machine-sized ``int``, and enough rows
    to amortize the directories.  Careted ordinals (ORDPATH-minted
    :class:`~fractions.Fraction` components) fail the ``int`` test — those
    columns stay raw tuples."""
    if len(keys) < MIN_ENCODED_ROWS:
        return False
    width = len(keys[0])
    if not width:
        return False
    for key in keys:
        if len(key) != width:
            return False
        for component in key:
            if type(component) is not int or component < 0 or component >= 1 << 62:
                return False
    return True


def build_column(keys: Sequence[Key], codec: Optional[str] = None) -> Column:
    """Build a column under ``codec`` (default: the registry default),
    falling back to raw tuples when :func:`packable` says the encoding
    cannot represent the keys.  A ``succinct`` request whose key universe
    is too wide for the Elias-Fano cell split (deep trees of huge
    ordinals) degrades to ``packed`` rather than raw — the per-position
    arrays have no universe limit."""
    name = _default_codec if codec is None else codec
    if name != "raw" and packable(keys):
        if name == "succinct":
            try:
                return SuccinctColumn(keys)
            except ValueError:
                return PackedColumn(keys)
        return CODECS[name](keys)
    return Column(keys)
