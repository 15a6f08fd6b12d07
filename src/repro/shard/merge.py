"""Merging per-shard result streams into global document order, run by run.

Each shard evaluates its specialization of the plan and returns its items
already in (virtual) document order — the per-shard evaluator guarantees
that.  Because a document lives on exactly one shard, two items from
different shards never share a container, so the global order is decided
entirely by the *source ordinal* (the first-appearance order of the
item's ``doc``/``virtualDoc`` source in the plan — the same order in
which the unsharded engine first sees each container) with the shard's
own stream order kept inside a container.

A stream is therefore cut into *runs* — maximal stretches of consecutive
items of one container — and each run is attributed to its source once
(:func:`stream_runs`): a virtual run shares its view, a stored run its
document (one ``parent`` walk per item to its top, one source lookup per
run).  The gather orders the runs of every stream by source ordinal,
stably, and concatenates them (:func:`merge_runs`); no item is keyed or
compared.  The split *verifies* instead of assuming: an item no source
owns, a stream that leaves a container and re-enters it (or an earlier
one), and a stored run whose extant prefix-based numbers — the paper's
point is that they never change, so they are directly comparable across
any re-sharding — are not ascending each fail loudly rather than
interleaving wrongly (``for $i in (2,1) ...`` is not document order).
"""

from __future__ import annotations

from operator import gt, itemgetter
from typing import Iterable, Optional

from repro.core.virtual_document import VNode
from repro.query.items import VirtualDocItem
from repro.shard.catalog import ShardError
from repro.xmlmodel.nodes import Document, Node


class ShardMergeError(ShardError):
    """The per-shard streams cannot be merged into a global order."""


#: One run of a shard's stream: ``(source ordinal, items)``.
Run = tuple[int, list]

_UNATTRIBUTED = (
    "a scatter result item cannot be attributed to a document "
    "source (constructed nodes and atomic values do not merge "
    "across shards); aggregate with count()/sum()/exists(), "
    "construct on the client, or route to a single shard"
)
_REENTERED = (
    "a shard stream leaves and re-enters a document: the plan's "
    "result order is not document order, so a global merge "
    "would reorder it; run the query per document instead"
)
_UNORDERED = (
    "a shard stream is not in PBN (document) order; the plan's "
    "result order is not document order, so a global merge "
    "would reorder it; run the query per document instead"
)


def source_ordinals(resolved: dict, sources: Iterable) -> dict:
    """``container id -> source ordinal`` for one shard's stream.

    :param resolved: the shard's :attr:`Result.sources` — the containers
        its own evaluation resolved, so an update landing after it
        evaluated cannot make its items unattributable.
    :param sources: ``((kind, uri, spec), ordinal)`` for the plan's sources.
    """
    return {
        _source_id(resolved[key]): ordinal for key, ordinal in sources if key in resolved
    }


def stream_runs(items: list, ordinals: dict) -> list[Run]:
    """Cut one shard's result stream into runs of consecutive items of
    one container, each attributed and verified once.

    :param ordinals: :func:`source_ordinals` of the stream.
    :raises ShardMergeError: for an item no source owns (constructed
        nodes, atomics), a stream that re-enters a container or an
        earlier one, and stored items out of PBN order.
    """
    runs: list[Run] = []
    last_ordinal = -1
    last_pbn: Optional[tuple] = None
    index, count = 0, len(items)
    while index < count:
        item = items[index]
        end = index + 1
        pbns = None
        if type(item) is VNode:
            vdoc = item._vdoc
            while end < count and type(items[end]) is VNode and items[end]._vdoc is vdoc:
                end += 1
            container = None if vdoc is None else id(vdoc)
        elif isinstance(item, Node):
            top = _top(item)
            while end < count:
                node = items[end]
                if not isinstance(node, Node):
                    break
                while node.parent is not None:
                    node = node.parent
                if node is not top:
                    break
                end += 1
            container = _source_id(top) if isinstance(top, Document) else None
            pbns = [node.pbn.components for node in items[index:end] if node.pbn is not None]
        else:  # a virtualDoc() handle is its own run; atomics have no source
            container = id(item.vdoc) if isinstance(item, VirtualDocItem) else None
        ordinal = ordinals.get(container)
        if ordinal is None:
            raise ShardMergeError(_UNATTRIBUTED)
        if ordinal < last_ordinal:
            raise ShardMergeError(_REENTERED)
        if ordinal > last_ordinal:
            last_ordinal, last_pbn = ordinal, None
        if pbns:
            # A document's versions share nodes, so one container can
            # come as several runs: the order carries over between them.
            if (last_pbn is not None and pbns[0] < last_pbn) or any(
                map(gt, pbns, pbns[1:])
            ):
                raise ShardMergeError(_UNORDERED)
            last_pbn = pbns[-1]
        if runs and runs[-1][0] == ordinal:
            runs[-1][1].extend(items[index:end])
        else:
            runs.append((ordinal, items[index:end]))
        index = end
    return runs


def merge_runs(streams: list[list[Run]]) -> list:
    """The items of every stream's runs in global order: runs sorted by
    source ordinal (stably, so a stream's own order is kept), then
    concatenated."""
    runs = [run for stream in streams for run in stream]
    runs.sort(key=itemgetter(0))
    return [item for _, run in runs for item in run]


def _top(node: Node) -> Node:
    """The top of ``node``'s tree by ``parent`` pointers: a document of
    its lineage for a stored node (versions share nodes, so it may be
    another version's), a constructed tree's own top otherwise."""
    while node.parent is not None:
        node = node.parent
    return node


def _source_id(container) -> int:
    """The key a container's items are attributed by: a document's
    lineage (every version of it), a view itself."""
    return id(container.lineage) if isinstance(container, Document) else id(container)
