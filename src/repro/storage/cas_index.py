"""The content-and-structure (CAS) index: value columns aligned with PBN.

The columnar kernels (``query/joins.py``) batch the *structural* half of
an axis step; this index batches the *content* half, so predicate-bearing
steps like ``child::price[. < 10]`` stop falling back to the scalar
per-pair loop.  Following the CAS-trie idea of interleaving content keys
with structure keys (Wellenzohn et al., arXiv 2006.05134), each DataGuide
type gets sorted ``(value_key, pbn_rank)`` projections over its posting
list: a single comparison predicate becomes one value range scan, the
resulting rank runs translate back to PBN keys through the shared column
spine, and the evaluator joins them against the structural candidate runs.

Coercion parity is the hard requirement: the scalar path routes every
comparison through ``_compare_pair`` (numeric when both sides coerce,
code-point string order otherwise), so one projection cannot answer both
regimes.  Each type therefore keeps **three** projections:

* ``numeric`` — ``to_number(value)`` for values that coerce (non-NaN),
  compared as floats;
* ``nonnumeric`` — the raw strings of values that do *not* coerce,
  compared against the constant's *string value* (``format_number`` for
  numeric constants — exactly what ``_compare_pair`` falls back to);
* ``strings`` — every value as its raw string, for constants that do not
  coerce (then *all* pairs compare as strings).

Lifecycle mirrors :class:`~repro.storage.type_index.TypeIndex` columns:
built lazily per type on first use, shared by reference across versions,
and invalidated copy-on-write per *touched* type at durable publication —
where "touched" for the CAS is strictly wider than for the type index,
because a text replace changes every ancestor element's string value even
though no posting list moves (see ``repro.updates.mutations._derive``).

Virtual documents get per-``VType`` CAS columns: a virtual element's
string value is the text of its *virtual* subtree — the view can prune
children — so a vtype the view restructures has columns of its own
(memoized on the vdoc like its other lazy indexes), while an *intact*
vtype, whose values are the stored ones, borrows the store's by identity.

The last section turns compiled predicates into *key filters*: a path
predicate ``[a/b op c]`` is resolved on the vDataGuide (a stored
document's is its identity view's), each leaf type's matched keys are
taken once and projected up to the candidate type, and the navigator
tests candidate keys against the projection before any node is resolved.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from itertools import accumulate
from typing import Callable, Optional

from repro.pbn.columnar import ValueColumn

#: Per-type cap on memoized predicate answers (one entry per distinct
#: ``(op, constant)``); cleared wholesale when full so a churning workload
#: cannot grow it without bound.
_MATCH_CACHE_CAP = 64


class CasColumns:
    """One type's content projections over its column spine.

    :param keys: the structural key spine (the type's posting list, held
        by reference — rank ``i`` names ``keys[i]``).
    :param values: the string value of each spine row, rank-aligned.
    """

    __slots__ = (
        "keys",
        "numeric",
        "nonnumeric",
        "strings",
        "_matches",
        "_numbers",
        "_sums",
    )

    def __init__(self, keys, values: list[str]) -> None:
        from repro.query.items import to_number

        self.keys = keys
        numeric_pairs: list = []
        nonnumeric_pairs: list = []
        string_pairs: list = []
        numbers = array("d", bytes(8 * len(values)))
        for rank, value in enumerate(values):
            string_pairs.append((value, rank))
            number = to_number(value)
            numbers[rank] = number
            if number == number:
                numeric_pairs.append((number, rank))
            else:
                nonnumeric_pairs.append((value, rank))
        self.numeric = ValueColumn(numeric_pairs)
        self.nonnumeric = ValueColumn(nonnumeric_pairs)
        self.strings = ValueColumn(string_pairs)
        self._matches: dict = {}
        #: rank-ordered coerced values (NaN for non-coercible), backing
        #: the aggregation fast path; its prefix arrays are built lazily.
        self._numbers = numbers
        self._sums = None

    def __len__(self) -> int:
        return len(self.strings)

    def matching_keys(self, op: str, constant) -> frozenset:
        """PBN keys of the rows whose value satisfies ``value <op>
        constant`` under ``_compare_pair`` coercion: numeric-coercible
        constants scan the numeric projection plus a string scan of the
        non-coercible remainder; other constants scan the all-strings
        projection.  The merged rank runs come back as a key set the
        evaluator joins against structural candidates.  Memoized per
        ``(op, constant)`` (bounded)."""
        token = (op, constant.__class__, constant)
        matched = self._matches.get(token)
        if matched is not None:
            return matched
        from repro.query.items import string_value, to_number

        number = to_number(constant)
        if number == number:
            ranks = self.numeric.matching_ranks(op, number)
            ranks += self.nonnumeric.matching_ranks(op, string_value(constant))
        else:
            ranks = self.strings.matching_ranks(op, string_value(constant))
        keys = self.keys
        if not isinstance(keys, (list, tuple)) and 4 * len(ranks) > len(keys):
            # Dense match over an encoded spine: one bulk decode beats a
            # bucket probe per rank.
            keys = keys[:]
        matched = frozenset(keys[rank] for rank in ranks)
        if len(self._matches) >= _MATCH_CACHE_CAP:
            self._matches.clear()
        self._matches[token] = matched
        return matched

    def sum_over(self, lo: int, hi: int):
        """Sum of the rank run ``[lo, hi)``'s coerced values, matching the
        scalar ``sum()`` byte for byte, or ``None`` when the column
        declines (some value is a non-integral finite number, where
        float addition order would show).

        Answerable columns keep two static prefix arrays — the running
        total of the values as exact ints (integral floats below 2**53
        add exactly in any association order) and the running count of
        NaNs — so a run is two subtractions: the static end of Pibiri &
        Venturini's prefix-sum trade-off (arXiv 2006.14552), the column
        being immutable.  A run containing a non-coercible value sums to
        NaN, exactly like the scalar loop.  Returns an ``int`` total; the
        caller owns the int-vs-float result shaping.
        """
        sums = self._sums
        if sums is None:
            ints: list[int] = []
            nans: list[int] = []
            for number in self._numbers:
                if number != number:
                    ints.append(0)
                    nans.append(1)
                elif number.is_integer() and -(2**53) < number < 2**53:
                    ints.append(int(number))
                    nans.append(0)
                else:
                    sums = False
                    break
            else:
                sums = (list(accumulate(ints, initial=0)), list(accumulate(nans, initial=0)))
            self._sums = sums
        if sums is False:
            return None
        totals, nan_counts = sums
        if nan_counts[hi] - nan_counts[lo]:
            return float("nan")
        return totals[hi] - totals[lo]


class CasIndex:
    """Per-store CAS columns, built lazily per type (like the keyword
    index: not every document gets value-filtered, and not every type of
    a filtered document does)."""

    def __init__(self, store) -> None:
        # The store owns the index; a strong reference back would turn
        # every retired store version into cyclic garbage that holds its
        # maps until a full collection instead of dying with its last view.
        self._store = weakref.proxy(store)
        self._columns: dict[int, Optional[CasColumns]] = {}
        self._lock = threading.Lock()

    def columns(self, type_id: int) -> Optional[CasColumns]:
        """The type's CAS columns, or ``None`` for a type with no
        postings.  First touch reads every instance's string value
        through the store; later touches are a dict hit."""
        try:
            return self._columns[type_id]
        except KeyError:
            pass
        with self._lock:
            if type_id in self._columns:
                return self._columns[type_id]
            store = self._store
            column = store.type_index.column(type_id)
            if column is None:
                built = None
            else:
                keys = column.keys
                built = CasColumns(
                    keys,
                    [
                        store.node_by_components(key).string_value()
                        for key in keys
                    ],
                )
            self._columns[type_id] = built
            return built

    def derived(self, store, touched) -> "CasIndex":
        """A copy-on-write successor for the next store version: built
        columns for untouched types ride along by reference (their spine
        *is* the shared posting list), touched types rebuild lazily
        against the new store.  ``touched`` must cover every type whose
        postings **or values** changed — the caller widens the type
        index's touched set with ancestor/override types."""
        successor = CasIndex(store)
        with self._lock:
            columns = dict(self._columns)
        for type_id in touched:
            columns.pop(type_id, None)
        successor._columns = columns
        return successor


# ---------------------------------------------------------------------------
# virtual documents
# ---------------------------------------------------------------------------


def virtual_cas_columns(vdoc, vtype) -> Optional[CasColumns]:
    """CAS columns for one virtual type, over the *virtual* string values
    of its instances (the transformed values, paper Section 6 — a pruned
    child's text must not leak into its parent's value).

    An *intact* vtype (:func:`repro.core.values.is_intact` — text and
    attribute leaves included) has the stored values on its store's own
    posting list, so it borrows the store's
    :class:`CasColumns` object: nothing is rebuilt when an update evicts
    the view, and the columns ride :meth:`CasIndex.derived` across
    versions like any stored type's.  Every other vtype gets columns of
    its own over the same spine, memoized on the vdoc under its memo
    lock; updates publish fresh vdoc objects through view revalidation,
    which is exactly the invalidation the other per-vdoc lazy indexes
    rely on.
    """
    memo = vdoc._cas_memo
    built = memo.get(id(vtype))
    if built is None:
        if id(vtype) in memo:
            return None  # memoized "no instances"
        from repro.core.values import is_intact

        store = vdoc.store
        if is_intact(vdoc, vtype):
            built = store.cas_index.columns(store.type_id(vtype.original))
        else:
            column = vdoc.column(vtype.original)
            if column is not None:
                from repro.core.virtual_document import VNode
                from repro.query.items import _virtual_string_value

                built = CasColumns(
                    column.keys,
                    [
                        _virtual_string_value(VNode(vtype, node, vdoc), vdoc)
                        for node in vdoc.rows(vtype.original)[1]
                    ],
                )
        with vdoc._memo_lock:
            memo[id(vtype)] = built
    return built


# ---------------------------------------------------------------------------
# key filters (the structural-join side of the kernel)
# ---------------------------------------------------------------------------


def path_chains(start, path) -> list[tuple]:
    """The type chains a predicate path reaches below ``start`` on a
    vDataGuide: one tuple of types per distinct way down,
    top first, leaf last (the empty chain for the empty path).  A
    ``descendant`` step contributes the types it passes through, so every
    chain is a parent/child walk the projection can climb edge by edge."""
    from repro.query.joins import type_matches

    chains: dict[tuple, None] = {(): None}
    for axis, test in path:
        grown: dict[tuple, None] = {}
        for chain in chains:
            top = chain[-1] if chain else start
            if axis != "descendant":
                for child in top.children:
                    if type_matches(child, test, axis):
                        grown[chain + (child,)] = None
                continue
            stack = [(top, chain)]
            while stack:
                current, walked = stack.pop()
                for child in current.children:
                    below = walked + (child,)
                    if type_matches(child, test, axis):
                        grown[below] = None
                    stack.append((child, below))
        chains = grown
    return list(chains)


def _instances(vdoc, vtype, prefixes) -> list:
    """Keys of the vtype's instances that start with any prefix."""
    column = vdoc.column(vtype.original)
    if column is None:
        return []
    bounds, _ = column.prefix_runs(sorted(prefixes))
    return column.key_runs(bounds)


def _project(pred, candidate, vdoc) -> dict:
    """One predicate's matches projected up to one candidate type, as
    ``{cut: prefixes}``: a candidate passes iff ``key[:cut]`` is among
    the prefixes of some entry.

    The rule, for any path length: resolve the path to type chains below
    the candidate, take each leaf type's matched keys once, and climb the
    chain.  A virtual child shares its first ``lca_length`` components
    with its virtual parent (Section 5.2's instance relation).  An edge
    whose child shares its parent's *whole* key is plain truncation and
    composes with the next slice (every edge of a store's identity view
    is); an edge that shares less (an inverted or lca-related virtual
    edge) joins the shared prefixes against the parent's column to name
    the parent instances.  The last edge leaves the prefix the candidate
    itself is probed by — its own key for the empty path (``. op c``),
    ``key[:width]`` whenever the candidate is a physical ancestor, the
    lca prefix otherwise.
    """
    probes: dict[int, set] = {}
    for chain in path_chains(candidate, pred.path):
        columns = virtual_cas_columns(vdoc, chain[-1] if chain else candidate)
        if columns is None:
            continue
        keys = columns.matching_keys(pred.op, pred.constant)
        if not keys:
            continue
        if not chain:
            probes[candidate.original.length] = keys
            continue
        for child, parent in zip(chain[:0:-1], chain[-2::-1]):
            cut = child.lca_length
            if cut < parent.original.length:
                keys = _instances(vdoc, parent, {key[:cut] for key in keys})
        cut = chain[0].lca_length
        probes.setdefault(cut, set()).update(key[:cut] for key in keys)
    return probes


class KeyFilter:
    """A step's compiled value predicates as a test on candidate *keys*,
    so the navigators drop rows before a node or a :class:`VNode` is
    built for them.  Projections are made once per candidate type and
    live as long as the filter — one step application."""

    def __init__(self, preds, vdoc) -> None:
        self._preds = preds
        self._vdoc = vdoc
        self._tests: dict[int, Callable] = {}

    def accepts(self, candidate) -> Callable:
        """``key -> bool`` for candidates of one type: every predicate
        holds (chained predicates intersect)."""
        test = self._tests.get(id(candidate))
        if test is None:
            probes = [
                tuple(_project(pred, candidate, self._vdoc).items())
                for pred in self._preds
            ]
            test = self._tests[id(candidate)] = _key_test(probes)
        return test


def _key_test(probes: list) -> Callable:
    if not all(probes):
        return lambda key: False
    if len(probes) == 1 and len(probes[0]) == 1:
        ((cut, members),) = probes[0]
        return lambda key: key[:cut] in members

    def test(key) -> bool:
        for alternatives in probes:
            for cut, members in alternatives:
                if key[:cut] in members:
                    break
            else:
                return False
        return True

    return test


def virtual_key_filter(vdoc, preds) -> KeyFilter:
    """The filter for a view's candidates, over per-vtype virtual-value
    columns (borrowed from the store where the vtype is intact — every
    vtype of a store's own identity view, where each edge is plain
    truncation)."""
    return KeyFilter(preds, vdoc)
