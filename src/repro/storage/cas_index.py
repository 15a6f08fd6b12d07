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

Virtual documents get their own per-``VType`` CAS columns (memoized on
the vdoc like its other lazy indexes): a virtual element's string value
is the text of its *virtual* subtree — the view can prune children — so
the stored type's projections would be wrong for it.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Optional

from repro.pbn.columnar import ValueColumn
from repro.pbn.succinct import PrefixSums

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
        #: the aggregation fast path; the PrefixSums pair is built lazily.
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

        Answerable columns split into a :class:`PrefixSums` over exact
        ints (integral floats below 2**53 add exactly in any association
        order) and one over NaN flags — a run containing a non-coercible
        value sums to NaN, exactly like the scalar loop.  Returns an
        ``int`` total; the caller owns the int-vs-float result shaping.
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
                sums = (PrefixSums(ints), PrefixSums(nans))
            self._sums = sums
        if sums is False:
            return None
        totals, nan_flags = sums
        if nan_flags.range_sum(lo, hi):
            return float("nan")
        return totals.range_sum(lo, hi)


class CasIndex:
    """Per-store CAS columns, built lazily per type (like the keyword
    index: not every document gets value-filtered, and not every type of
    a filtered document does)."""

    def __init__(self, store) -> None:
        self._store = store
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

    def built_type_ids(self) -> list[int]:
        """Type ids with materialized columns (for tests and reporting)."""
        with self._lock:
            return [
                type_id
                for type_id, built in self._columns.items()
                if built is not None
            ]


# ---------------------------------------------------------------------------
# virtual documents
# ---------------------------------------------------------------------------


def virtual_cas_columns(vdoc, vtype) -> Optional[CasColumns]:
    """CAS columns for one virtual type, over the *virtual* string values
    of its instances (the transformed values, paper Section 6 — a pruned
    child's text must not leak into its parent's value).

    The spine is ``vdoc.column(vtype.original)`` — the same shared
    posting list the structural kernels scan.  Memoized on the vdoc under
    its memo lock; updates publish fresh vdoc objects through view
    revalidation, which is exactly the invalidation the other per-vdoc
    lazy indexes rely on.
    """
    memo = vdoc._cas_memo
    built = memo.get(id(vtype))
    if built is None:
        if id(vtype) in memo:
            return None  # memoized "no instances"
        from repro.core.virtual_document import VNode
        from repro.query.items import _virtual_string_value

        entry = vdoc.column(vtype.original)
        if entry is None:
            with vdoc._memo_lock:
                memo[id(vtype)] = None
            return None
        column, nodes = entry
        built = CasColumns(
            column.keys,
            [
                _virtual_string_value(VNode(vtype, node, vdoc), vdoc)
                for node in nodes
            ],
        )
        with vdoc._memo_lock:
            memo[id(vtype)] = built
    return built


# ---------------------------------------------------------------------------
# candidate matchers (the structural-join side of the kernel)
# ---------------------------------------------------------------------------


def stored_value_matcher(store, pred, type_matches: Callable) -> Callable:
    """A ``node -> bool`` filter applying one compiled value predicate to
    stored candidates through the store's CAS index.

    ``self`` targets test the candidate's own key against the matched key
    set of its type.  ``child``/``attribute`` targets are existential:
    the matched keys of each matching child type project to their parent
    keys (one component shorter — a DataGuide child sits exactly one
    level below its parent), and a candidate passes when its key is one
    of those parents.  Per-candidate work is one hash probe; the range
    scans run once per distinct candidate type.
    """
    cas = store.cas_index
    cache: dict = {}
    if pred.axis == "self":

        def matcher(node) -> bool:
            guide_type = store.type_of(node)
            matched = cache.get(id(guide_type))
            if matched is None:
                columns = cas.columns(store.type_id(guide_type))
                matched = (
                    columns.matching_keys(pred.op, pred.constant)
                    if columns is not None
                    else frozenset()
                )
                cache[id(guide_type)] = matched
            return node.pbn.components in matched

        return matcher

    def matcher(node) -> bool:
        guide_type = store.type_of(node)
        parents = cache.get(id(guide_type))
        if parents is None:
            parents = set()
            for child_type in guide_type.children:
                if not type_matches(child_type, pred.test, pred.axis):
                    continue
                columns = cas.columns(store.type_id(child_type))
                if columns is None:
                    continue
                for key in columns.matching_keys(pred.op, pred.constant):
                    parents.add(key[:-1])
            cache[id(guide_type)] = parents
        return node.pbn.components in parents

    return matcher


def virtual_value_matcher(vdoc, pred, vtype_matches: Callable) -> Callable:
    """The virtual twin of :func:`stored_value_matcher`, over per-vtype
    virtual-value columns.  Virtual children share their parent's first
    ``lca_length`` components (Section 5.2's instance relation), so the
    existential form projects matched child keys to lca prefixes instead
    of one-shorter parent keys."""
    cache: dict = {}
    if pred.axis == "self":

        def matcher(vnode) -> bool:
            matched = cache.get(id(vnode.vtype))
            if matched is None:
                columns = virtual_cas_columns(vdoc, vnode.vtype)
                matched = (
                    columns.matching_keys(pred.op, pred.constant)
                    if columns is not None
                    else frozenset()
                )
                cache[id(vnode.vtype)] = matched
            return vnode.node.pbn.components in matched

        return matcher

    def matcher(vnode) -> bool:
        probes = cache.get(id(vnode.vtype))
        if probes is None:
            probes = []
            for child_vtype in vnode.vtype.children:
                if not vtype_matches(child_vtype, pred.test, pred.axis):
                    continue
                columns = virtual_cas_columns(vdoc, child_vtype)
                if columns is None:
                    continue
                lca = child_vtype.lca_length
                prefixes = {
                    key[:lca]
                    for key in columns.matching_keys(pred.op, pred.constant)
                }
                if prefixes:
                    probes.append((lca, prefixes))
            cache[id(vnode.vtype)] = probes
        key = vnode.node.pbn.components
        return any(key[:lca] in prefixes for lca, prefixes in probes)

    return matcher
