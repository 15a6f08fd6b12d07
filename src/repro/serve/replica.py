"""WAL-shipped read replicas for a primary :class:`QueryService`.

The paper's central property — extant prefix-based numbers never change
under updates; mutations only *mint* new numbers, by deterministic
ORDPATH careting between fixed neighbors — makes replication almost
embarrassingly simple:

* a **replica** is a store snapshot plus a redo tail.  The primary's
  store objects are immutable (updates derive copy-on-write versions),
  so seeding a replica is attaching the primary's current store object
  to the replica's own service — no copy, no quiesce;
* the **redo stream** is the exact WAL payload format the durable store
  already logs (:mod:`repro.updates.ops` JSON ops).  The
  :class:`ShipLog` keeps the primary's committed ops in commit order and
  replicas replay the tail through their *own* update path;
* **convergence is byte-identical**, not merely equivalent: careting is
  deterministic given the op and the store version it applies to, so a
  replica that has applied the same prefix of the stream serializes to
  the same image as the primary (checked by :meth:`ReplicaSet.verify_identical`,
  and pinned by the differential suite in ``tests/updates``).

Replicas share the primary's plan cache (plans are document-independent)
and metrics/stats/tracer, but own their **view cache**: cached views are
validated by document identity, and primary and replica can be on
different document versions while one catches up — sharing would thrash.

Freshness protocol: reads go to a replica only after it has caught up to
within ``max_lag`` ops of the ship log head (``catch_up`` applies the
tail at read time, bounded by ``catchup_batch``); reads that cannot be
served fresh enough fall back to the primary and count a
``serve.replica.fallbacks`` metric.  With the defaults (``max_lag=0``,
unbounded catch-up) every replica read observes the latest committed
write — the lag machinery exists for bounded-staleness configurations
and for exercising the protocol under test.
"""

from __future__ import annotations

import threading
import time
from io import BytesIO
from typing import Optional

from repro.obs.trace import span
from repro.service.cache import ViewCache
from repro.service.service import QueryService


class ShipLog:
    """The primary's committed redo stream, in commit order.

    Each record is ``(seq, uri, op_json)`` with ``seq`` starting at 1 —
    the same JSON payload format the durable WAL appends, so a replica
    replay and a crash-recovery replay are the same code path
    (:func:`repro.updates.ops.op_from_json`).
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, str, dict]] = []

    @property
    def seq(self) -> int:
        """Sequence number of the newest shipped record (0 when empty)."""
        return len(self._records)

    def append(self, uri: str, op_json: dict) -> int:
        seq = len(self._records) + 1
        self._records.append((seq, uri, op_json))
        return seq

    def since(self, seq: int) -> list[tuple[int, str, dict]]:
        """All records with sequence numbers greater than ``seq``."""
        return self._records[seq:]


class Replica:
    """One read replica: its own :class:`QueryService` plus its position
    in the ship log (``applied_seq``)."""

    def __init__(self, index: int, service: QueryService) -> None:
        self.index = index
        self.service = service
        self.applied_seq = 0
        #: Wall clock of the last applied (or seeded) position — the
        #: ``serve.replica.apply_age_seconds`` gauge reads it.
        self.applied_at = time.time()

    def lag(self, ship_log: ShipLog) -> int:
        """How many committed ops this replica has not yet applied."""
        return ship_log.seq - self.applied_seq

    def catch_up(self, ship_log: ShipLog, limit: Optional[int] = None) -> int:
        """Apply up to ``limit`` pending records (all of them when
        ``None``) through this replica's own update path; returns the
        number applied.  Caller must hold the replica set's lock."""
        from repro.updates.ops import op_from_json

        applied = 0
        for seq, uri, op_json in ship_log.since(self.applied_seq):
            if limit is not None and applied >= limit:
                break
            self.service.update(uri, op_from_json(op_json))
            self.applied_seq = seq
            applied += 1
        if applied:
            self.applied_at = time.time()
        return applied


class ReplicaSet:
    """N WAL-shipped read replicas around one primary service.

    :param primary: the :class:`QueryService` that owns the documents
        and the write path (possibly durable).
    :param count: number of read replicas.
    :param max_lag: a replica may serve a read while at most this many
        ops behind the ship log head (0 = reads always observe the
        latest committed write).
    :param catchup_batch: max ops a replica applies per read attempt
        (``None`` = catch all the way up); bounding it forces the
        primary-fallback path, which tests and benchmarks exercise.
    :param label: name for this set in span details and gauge labels
        (``build_serving`` labels per-shard sets ``shard0``, ``shard1``…).
    """

    def __init__(
        self,
        primary: QueryService,
        count: int = 1,
        max_lag: int = 0,
        catchup_batch: Optional[int] = None,
        label: str = "",
    ) -> None:
        if count < 1:
            raise ValueError(f"need at least one replica, got {count}")
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        self.primary = primary
        self.label = label
        self.max_lag = max_lag
        self.catchup_batch = catchup_batch
        self.metrics = primary.metrics
        self.ship_log = ShipLog()
        self._lock = threading.Lock()
        self._next_read = 0
        self.replicas = [
            Replica(
                index,
                QueryService(
                    pool_size=primary.pool_size,
                    mode=primary.mode,
                    metrics=primary.metrics,
                    tracer=primary.tracer,
                    stats=primary.stats,
                    plan_cache=primary.plan_cache,
                    # Own view cache: entries validate by document
                    # identity, and a catching-up replica is on older
                    # document versions than the primary.
                    view_cache=ViewCache(
                        primary.view_cache.capacity, primary.metrics
                    ),
                ),
            )
            for index in range(count)
        ]
        for uri in primary.uris():
            self.seed(uri, primary.store(uri))

    # -- topology ----------------------------------------------------------------

    def seed(self, uri: str, store) -> None:
        """Seed every replica with the primary's current store for
        ``uri``.  Replicas are first brought current (so the snapshot's
        log position is the log head for *all* their documents), then
        adopt the store object — safe to share, stores are never mutated
        in place."""
        with self._lock:
            for replica in self.replicas:
                replica.catch_up(self.ship_log)
                replica.service.adopt_store(uri, store)
                replica.applied_seq = self.ship_log.seq
                replica.applied_at = time.time()

    # -- write path --------------------------------------------------------------

    def update(self, uri: str, op):
        """Apply one op on the primary (durably, if the uri is durable)
        and ship it to the replicas' redo stream."""
        with self._lock:
            result = self.primary.update(uri, op)
            self.ship_log.append(uri, op.to_json())
            self.metrics.incr("serve.replica.shipped")
        return result

    # -- read path ---------------------------------------------------------------

    def read_service(self, wait: bool = True) -> Optional[QueryService]:
        """Where the next read executes: the next replica round-robin,
        after catching it up to within ``max_lag`` of the log head —
        or the primary when the replica cannot be served fresh enough
        under the ``catchup_batch`` bound.

        ``wait=False`` is the event loop's variant: it never waits on
        the set's lock and never replays shipped records.  It answers
        the next replica when that one has nothing to replay, and
        ``None`` otherwise (the caller reads on a worker instead, where
        the blocking variant catches the same replica up).

        The routing decision (including the redo-tail catch-up it may
        pay for) records as a ``replica.read`` span on the active trace;
        the read itself follows as the sibling ``query`` span."""
        if not self._lock.acquire(blocking=wait):
            return None
        try:
            replica = self.replicas[self._next_read % len(self.replicas)]
            if not wait and replica.lag(self.ship_log):
                return None
            with span("replica.read", self.label) as read_span:
                self._next_read += 1
                applied = replica.catch_up(self.ship_log, self.catchup_batch)
                lag = replica.lag(self.ship_log)
                read_span.set("replica", replica.index)
                read_span.set("applied", applied)
                read_span.set("lag", lag)
                if lag <= self.max_lag:
                    read_span.set("target", "replica")
                    self.metrics.incr("serve.replica.reads")
                    return replica.service
                read_span.set("target", "primary")
                self.metrics.incr("serve.replica.fallbacks")
                return self.primary
        finally:
            self._lock.release()

    # -- introspection -----------------------------------------------------------

    def lag(self) -> int:
        """The laggiest replica's distance from the ship log head."""
        with self._lock:
            return max(replica.lag(self.ship_log) for replica in self.replicas)

    def catch_up_all(self) -> None:
        """Drain every replica's redo tail (used before verification)."""
        with self._lock:
            for replica in self.replicas:
                replica.catch_up(self.ship_log)

    def snapshot(self) -> dict:
        now = time.time()
        with self._lock:
            report = {
                "shipped": self.ship_log.seq,
                "max_lag": self.max_lag,
                "replicas": [
                    {
                        "index": replica.index,
                        "applied_seq": replica.applied_seq,
                        "lag": replica.lag(self.ship_log),
                        "apply_age_s": round(max(now - replica.applied_at, 0.0), 3),
                    }
                    for replica in self.replicas
                ],
            }
            if self.label:
                report["label"] = self.label
            return report

    def gauges(self) -> dict[str, list[tuple[dict, float]]]:
        """Labeled gauge rows for the Prometheus exposition: per-replica
        lag in ops *and* seconds since the last applied op, plus the
        ship-log head — the two lag axes the bounded-staleness protocol
        is specified in."""
        now = time.time()
        with self._lock:
            base = {"set": self.label} if self.label else {}
            lag_rows: list[tuple[dict, float]] = []
            age_rows: list[tuple[dict, float]] = []
            for replica in self.replicas:
                labels = {**base, "replica": str(replica.index)}
                lag_rows.append((labels, float(replica.lag(self.ship_log))))
                age_rows.append((labels, max(now - replica.applied_at, 0.0)))
            head = [(dict(base), float(self.ship_log.seq))]
        return {
            "serve.replica.lag_ops": lag_rows,
            "serve.replica.apply_age_seconds": age_rows,
            "serve.replica.ship_log_seq": head,
        }

    def verify_identical(self, uri: str) -> bool:
        """Byte-identity check: after a full catch-up, every replica's
        store for ``uri`` serializes to exactly the primary's image
        (deterministic careting makes this an equality, not an
        approximation)."""
        self.catch_up_all()
        reference = _image_bytes(self.primary, uri)
        return all(
            _image_bytes(replica.service, uri) == reference
            for replica in self.replicas
        )


def _image_bytes(service: QueryService, uri: str) -> bytes:
    from repro.storage.persist import dump_store

    out = BytesIO()
    dump_store(service.store(uri), out, applied_seq=0)
    return out.getvalue()
