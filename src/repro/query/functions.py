"""Built-in function library.

Functions receive the dynamic context and their *evaluated* argument
sequences.  ``doc`` and ``virtualDoc`` — the paper's Section 2 entry points —
resolve through the engine on the context.

Signatures are checked by arity; sequence-cardinality errors raise
:class:`~repro.errors.QueryEvaluationError`.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import QueryEvaluationError
from repro.query.items import (
    Sequence,
    atomize,
    effective_boolean,
    format_number,
    is_node,
    name_of,
    string_value,
    to_number,
)

#: name -> (min_args, max_args, impl(context, *arg_sequences))
REGISTRY: dict[str, tuple[int, int, Callable]] = {}


def _register(name: str, min_args: int, max_args: int):
    def wrap(impl: Callable) -> Callable:
        REGISTRY[name] = (min_args, max_args, impl)
        return impl

    return wrap


def _single_atomic(args: Sequence, what: str):
    values = atomize(args)
    if len(values) != 1:
        raise QueryEvaluationError(
            f"{what} expects exactly one item, got {len(values)}"
        )
    return values[0]


def _optional_atomic(args: Sequence, what: str):
    values = atomize(args)
    if len(values) > 1:
        raise QueryEvaluationError(f"{what} expects at most one item")
    return values[0] if values else None


# -- documents ---------------------------------------------------------------------


@_register("doc", 1, 1)
def _fn_doc(context, uri_args: Sequence) -> Sequence:
    """``doc(uri)``: the document node of a loaded document."""
    uri = str(_single_atomic(uri_args, "doc()"))
    document = context.engine.document(uri)
    context.engine.sources.setdefault(("doc", uri, None), document)
    return [document]


@_register("virtualDoc", 2, 2)
def _fn_virtual_doc(context, uri_args: Sequence, spec_args: Sequence) -> Sequence:
    """``virtualDoc(uri, vDataGuide)``: the paper's new function — a
    document handle for the *virtual* hierarchy the specification
    describes.  No data is transformed; the rest of the query is evaluated
    in the transformed space."""
    from repro.query.items import VirtualDocItem

    uri = str(_single_atomic(uri_args, "virtualDoc()"))
    spec = str(_single_atomic(spec_args, "virtualDoc()"))
    vdoc = context.engine.virtual(uri, spec)
    context.engine.sources.setdefault(("virtualDoc", uri, spec), vdoc)
    return [VirtualDocItem(vdoc)]


# -- cardinality / aggregation -------------------------------------------------------


@_register("count", 1, 1)
def _fn_count(context, args: Sequence) -> Sequence:
    return [len(args)]


@_register("empty", 1, 1)
def _fn_empty(context, args: Sequence) -> Sequence:
    return [not args]


@_register("exists", 1, 1)
def _fn_exists(context, args: Sequence) -> Sequence:
    return [bool(args)]


@_register("sum", 1, 1)
def _fn_sum(context, args: Sequence) -> Sequence:
    numbers = [to_number(v) for v in atomize(args)]
    return [sum(numbers)] if numbers else [0]


@_register("avg", 1, 1)
def _fn_avg(context, args: Sequence) -> Sequence:
    numbers = [to_number(v) for v in atomize(args)]
    return [sum(numbers) / len(numbers)] if numbers else []


@_register("min", 1, 1)
def _fn_min(context, args: Sequence) -> Sequence:
    numbers = [to_number(v) for v in atomize(args)]
    return [min(numbers)] if numbers else []


@_register("max", 1, 1)
def _fn_max(context, args: Sequence) -> Sequence:
    numbers = [to_number(v) for v in atomize(args)]
    return [max(numbers)] if numbers else []


@_register("distinct-values", 1, 1)
def _fn_distinct_values(context, args: Sequence) -> Sequence:
    seen: list = []
    for value in atomize(args):
        if value not in seen:
            seen.append(value)
    return seen


# -- strings ---------------------------------------------------------------------


@_register("string", 0, 1)
def _fn_string(context, *args: Sequence) -> Sequence:
    if not args:
        return [string_value(context.require_item())]
    value = _optional_atomic(args[0], "string()")
    return [""] if value is None else [string_value(value)]


@_register("data", 1, 1)
def _fn_data(context, args: Sequence) -> Sequence:
    return atomize(args)


@_register("concat", 2, 64)
def _fn_concat(context, *arg_lists: Sequence) -> Sequence:
    parts = []
    for args in arg_lists:
        value = _optional_atomic(args, "concat()")
        parts.append("" if value is None else string_value(value))
    return ["".join(parts)]


@_register("string-join", 1, 2)
def _fn_string_join(context, args: Sequence, *rest: Sequence) -> Sequence:
    separator = ""
    if rest:
        separator = str(_single_atomic(rest[0], "string-join()"))
    return [separator.join(string_value(v) for v in atomize(args))]


@_register("contains", 2, 2)
def _fn_contains(context, haystack: Sequence, needle: Sequence) -> Sequence:
    h = _optional_atomic(haystack, "contains()") or ""
    n = _optional_atomic(needle, "contains()") or ""
    return [string_value(n) in string_value(h)]


@_register("starts-with", 2, 2)
def _fn_starts_with(context, haystack: Sequence, needle: Sequence) -> Sequence:
    h = _optional_atomic(haystack, "starts-with()") or ""
    n = _optional_atomic(needle, "starts-with()") or ""
    return [string_value(h).startswith(string_value(n))]


@_register("ends-with", 2, 2)
def _fn_ends_with(context, haystack: Sequence, needle: Sequence) -> Sequence:
    h = _optional_atomic(haystack, "ends-with()") or ""
    n = _optional_atomic(needle, "ends-with()") or ""
    return [string_value(h).endswith(string_value(n))]


@_register("substring", 2, 3)
def _fn_substring(context, source: Sequence, start: Sequence, *rest: Sequence) -> Sequence:
    text = string_value(_optional_atomic(source, "substring()") or "")
    begin = int(round(to_number(_single_atomic(start, "substring()"))))
    if rest:
        length = int(round(to_number(_single_atomic(rest[0], "substring()"))))
        return [text[max(begin - 1, 0) : max(begin - 1 + length, 0)]]
    return [text[max(begin - 1, 0) :]]


@_register("string-length", 0, 1)
def _fn_string_length(context, *args: Sequence) -> Sequence:
    if not args:
        return [len(string_value(context.require_item()))]
    value = _optional_atomic(args[0], "string-length()")
    return [0 if value is None else len(string_value(value))]


@_register("normalize-space", 0, 1)
def _fn_normalize_space(context, *args: Sequence) -> Sequence:
    if not args:
        text = string_value(context.require_item())
    else:
        value = _optional_atomic(args[0], "normalize-space()")
        text = "" if value is None else string_value(value)
    return [" ".join(text.split())]


@_register("substring-before", 2, 2)
def _fn_substring_before(context, source: Sequence, needle: Sequence) -> Sequence:
    text = string_value(_optional_atomic(source, "substring-before()") or "")
    sep = string_value(_optional_atomic(needle, "substring-before()") or "")
    index = text.find(sep) if sep else -1
    return [text[:index] if index >= 0 else ""]


@_register("substring-after", 2, 2)
def _fn_substring_after(context, source: Sequence, needle: Sequence) -> Sequence:
    text = string_value(_optional_atomic(source, "substring-after()") or "")
    sep = string_value(_optional_atomic(needle, "substring-after()") or "")
    index = text.find(sep) if sep else -1
    return [text[index + len(sep):] if index >= 0 else ""]


@_register("translate", 3, 3)
def _fn_translate(context, source: Sequence, from_args: Sequence, to_args: Sequence) -> Sequence:
    text = string_value(_optional_atomic(source, "translate()") or "")
    from_chars = string_value(_single_atomic(from_args, "translate()"))
    to_chars = string_value(_single_atomic(to_args, "translate()"))
    table = {}
    for position, char in enumerate(from_chars):
        if char in table:
            continue  # first occurrence wins, like XPath
        table[char] = to_chars[position] if position < len(to_chars) else None
    out = []
    for char in text:
        if char in table:
            if table[char] is not None:
                out.append(table[char])
        else:
            out.append(char)
    return ["".join(out)]


@_register("matches", 2, 2)
def _fn_matches(context, source: Sequence, pattern_args: Sequence) -> Sequence:
    import re

    from repro.errors import QueryEvaluationError as _Error

    text = string_value(_optional_atomic(source, "matches()") or "")
    pattern = string_value(_single_atomic(pattern_args, "matches()"))
    try:
        return [re.search(pattern, text) is not None]
    except re.error as exc:
        raise _Error(f"bad regular expression in matches(): {exc}") from exc


@_register("replace", 3, 3)
def _fn_replace(context, source: Sequence, pattern_args: Sequence, repl_args: Sequence) -> Sequence:
    import re

    from repro.errors import QueryEvaluationError as _Error

    text = string_value(_optional_atomic(source, "replace()") or "")
    pattern = string_value(_single_atomic(pattern_args, "replace()"))
    replacement = string_value(_single_atomic(repl_args, "replace()"))
    try:
        return [re.sub(pattern, replacement, text)]
    except re.error as exc:
        raise _Error(f"bad regular expression in replace(): {exc}") from exc


@_register("tokenize", 2, 2)
def _fn_tokenize(context, source: Sequence, pattern_args: Sequence) -> Sequence:
    import re

    from repro.errors import QueryEvaluationError as _Error

    text = string_value(_optional_atomic(source, "tokenize()") or "")
    pattern = string_value(_single_atomic(pattern_args, "tokenize()"))
    if not text:
        return []
    try:
        return [part for part in re.split(pattern, text)]
    except re.error as exc:
        raise _Error(f"bad regular expression in tokenize(): {exc}") from exc


@_register("upper-case", 1, 1)
def _fn_upper_case(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "upper-case()")
    return ["" if value is None else string_value(value).upper()]


@_register("lower-case", 1, 1)
def _fn_lower_case(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "lower-case()")
    return ["" if value is None else string_value(value).lower()]


# -- numbers ---------------------------------------------------------------------


@_register("number", 0, 1)
def _fn_number(context, *args: Sequence) -> Sequence:
    if not args:
        return [to_number(string_value(context.require_item()))]
    value = _optional_atomic(args[0], "number()")
    return [float("nan") if value is None else to_number(value)]


@_register("floor", 1, 1)
def _fn_floor(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "floor()")
    return [] if value is None else [math.floor(to_number(value))]


@_register("ceiling", 1, 1)
def _fn_ceiling(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "ceiling()")
    return [] if value is None else [math.ceil(to_number(value))]


@_register("round", 1, 1)
def _fn_round(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "round()")
    return [] if value is None else [math.floor(to_number(value) + 0.5)]


@_register("abs", 1, 1)
def _fn_abs(context, args: Sequence) -> Sequence:
    value = _optional_atomic(args, "abs()")
    return [] if value is None else [abs(to_number(value))]


# -- booleans ---------------------------------------------------------------------


@_register("not", 1, 1)
def _fn_not(context, args: Sequence) -> Sequence:
    return [not effective_boolean(args)]


@_register("boolean", 1, 1)
def _fn_boolean(context, args: Sequence) -> Sequence:
    return [effective_boolean(args)]


@_register("true", 0, 0)
def _fn_true(context) -> Sequence:
    return [True]


@_register("false", 0, 0)
def _fn_false(context) -> Sequence:
    return [False]


# -- nodes ---------------------------------------------------------------------


@_register("name", 0, 1)
def _fn_name(context, *args: Sequence) -> Sequence:
    if not args:
        item = context.require_item()
    else:
        if not args[0]:
            return [""]
        item = args[0][0]
    if not is_node(item):
        raise QueryEvaluationError("name() expects a node")
    label = name_of(item)
    return [label[1:] if label.startswith("@") else label]


@_register("local-name", 0, 1)
def _fn_local_name(context, *args: Sequence) -> Sequence:
    names = _fn_name(context, *args)
    return [name.split(":")[-1] for name in names]


@_register("position", 0, 0)
def _fn_position(context) -> Sequence:
    return [context.position]


@_register("last", 0, 0)
def _fn_last(context) -> Sequence:
    return [context.size]


@_register("text", 0, 0)
def _fn_text(context) -> Sequence:
    """``text()`` used in call position: the text value of the context
    item (convenience alias; as a node test it is handled by the parser)."""
    return [string_value(context.require_item())]


@_register("contains-text", 2, 2)
def _fn_contains_text(context, nodes: Sequence, term_args: Sequence) -> Sequence:
    """``contains-text($nodes, term)``: true iff some node's subtree holds
    the keyword ``term`` (tokenized, case-insensitive).

    Answered from the store's inverted keyword index when available.  For
    virtual nodes the *same untouched index* is consulted: each posting's
    number, paired with its type's level array, is tested with
    ``vDescendant-or-self`` against the node — keyword search in the
    transformed space without re-indexing (the Section 4.3 argument).
    """
    term_value = _single_atomic(term_args, "contains-text()")
    term = str(term_value).lower()
    for item in nodes:
        if _node_contains_term(context, item, term):
            return [True]
    return [False]


def _node_contains_term(context, item, term: str) -> bool:
    from repro.core.virtual_document import VNode
    from repro.query.items import VirtualDocItem
    from repro.storage.text_index import tokenize
    from repro.xmlmodel.nodes import Node

    if isinstance(item, Node):
        store = context.engine.store_of(item)
        if store is not None and item.pbn is not None:
            return store.text_index.contains_under(item.pbn, term)
        return term in tokenize(string_value(item))
    if isinstance(item, VNode):
        vdoc = item._vdoc
        store = context.engine.store_of(vdoc.document) if vdoc is not None else None
        if store is None:
            return term in tokenize(string_value(item))
        return _virtual_contains(context, vdoc, store, item, term)
    if isinstance(item, VirtualDocItem):
        return term in tokenize(string_value(item))
    return term in tokenize(string_value(item))


def _virtual_contains(context, vdoc, store, item, term: str) -> bool:
    """Virtual containment from the original keyword index.

    Each posting (an original text/attribute number) paired with the level
    array of its virtual type is a vPBN; ``vDescendant-or-self`` against
    ``item`` decides containment in the transformed space.  The predicate
    is inlined on raw tuples, with postings grouped per virtual type (the
    type-level conjunct and array lookups then amortize over the group)
    and the grouping cached per (vdoc, term).
    """
    cache = getattr(vdoc, "_term_postings_cache", None)
    if cache is None:
        cache = {}
        vdoc._term_postings_cache = cache
    groups = cache.get(term)
    if groups is None:
        by_vtype: dict = {}
        for number in store.text_index.postings(term):
            original = store.type_of(store.node(number))
            for vtype in vdoc.vguide.vtypes_of(original):
                by_vtype.setdefault(id(vtype), (vtype, []))[1].append(
                    number.components
                )
        groups = list(by_vtype.values())
        cache[term] = groups
    ref_vtype = item.vtype
    ref_guide_key = ref_vtype.pbn.components
    ref_array = ref_vtype.level_array
    ref_level = ref_array[-1]
    ref_n = item.node.pbn.components
    ref_len = len(ref_n)
    stats = context.engine.stats
    for vtype, postings in groups:
        # Type-level conjunct once per group: the posting's virtual type
        # must be a descendant-or-self of the item's type.
        if vtype.pbn.components[: len(ref_guide_key)] != ref_guide_key:
            continue
        array = vtype.level_array
        if array[-1] < ref_level:
            continue
        # Guard positions are fixed per type pair.
        shared = range(min(ref_len, vtype.original.length))
        guarded = [i for i in shared if ref_array[i] == array[i]]
        for components in postings:
            stats.comparisons += 1
            if all(ref_n[i] == components[i] for i in guarded):
                return True
    return False
