"""Sharded collections: scatter-gather querying over partitioned documents.

Documents partition across shards by uri (CRC-based hash placement with
explicit overrides, :mod:`repro.shard.catalog`); a parsed plan is
analysed and specialized per shard (:mod:`repro.shard.plan`), evaluated
on per-shard engine pools, and the per-shard streams merge back into
global document order as runs of one container each, ordered by source
ordinal (:mod:`repro.shard.merge`).  :class:`~repro.shard.service.ShardedService`
ties it together behind the same surface as the unsharded
:class:`~repro.service.service.QueryService`.
"""

from repro.shard.catalog import ShardCatalog, ShardError, doc_slug, stable_shard
from repro.shard.merge import ShardMergeError, merge_runs, stream_runs
from repro.shard.plan import (
    COMBINERS,
    PlanSources,
    Source,
    combiner_of,
    referenced_sources,
    specialize,
)
from repro.shard.service import BatchResult, ShardedService, ShardResult

__all__ = [
    "BatchResult",
    "COMBINERS",
    "PlanSources",
    "ShardCatalog",
    "ShardError",
    "ShardMergeError",
    "ShardResult",
    "ShardedService",
    "Source",
    "combiner_of",
    "doc_slug",
    "merge_runs",
    "referenced_sources",
    "specialize",
    "stable_shard",
    "stream_runs",
]
