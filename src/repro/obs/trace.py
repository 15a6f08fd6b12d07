"""End-to-end tracing: context-propagated spans, a sampling tracer, a ring buffer.

The paper argues vPBN's overhead is *modest*; the experiment tables (E1-E12)
show that offline, but a live service needs the same attribution per
request — which slice of a slow query went to parsing, Algorithm 1
level-array construction, axis navigation, buffer-pool misses, or the
WAL fsync.  This module is the zero-dependency substrate the rest of the
stack reports into:

* A **span** is a named, monotonic-clock interval with a bounded
  attribute map (pages read, PBN comparisons, cache outcomes) and child
  spans.  Spans form one tree per request — the trace.
* The **active span lives in a ``contextvars.ContextVar``**, so it
  survives ``await`` inside one asyncio task while staying invisible to
  concurrent tasks and to plain threads (each task copies the context at
  creation; a fresh thread starts empty).  Instrumented code anywhere in
  the stack (navigators, buffer pool, WAL) calls :func:`span` /
  :func:`span_add` without threading a tracer through every signature;
  when no trace is active both are a context-variable load plus a
  branch, so the hot path pays nothing measurable when tracing is
  disabled or the request was not sampled.
* Hops that do **not** propagate context automatically get explicit
  hand-offs: :func:`wrap` captures the caller's context for a
  ``loop.run_in_executor`` offload, :func:`fork` mints a child span now
  and activates it later on a scatter-gather pool thread, and
  :class:`SpanContext` is the serializable carrier (64-bit random ids, a
  ``traceparent``-style header) that crosses HTTP boundaries.
* A :class:`Tracer` decides *which* requests trace (``sample_rate``,
  deterministic every-Nth so tests can pin it), keeps the last traces in
  a ring buffer, and appends any trace slower than ``slow_threshold_s``
  to a separate slow-query log (also logged via :mod:`logging`).

When a trace is started with a ``stats`` block (the engine's
:class:`~repro.storage.stats.StorageStats`), every span snapshots the
counters on entry and exit, so a finished trace attributes logical
storage costs — page reads, buffer hits, comparisons, index scans — to
the exact span that incurred them.  Under a single-threaded run the
attribution is exact to the unit; with several engines sharing one stats
block it is approximate, like the block itself.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
import time
from collections import deque
from typing import NamedTuple, Optional

logger = logging.getLogger("repro.obs")

#: Per-span attribute cap — a span never grows past this many keys, so a
#: pathological query cannot balloon the ring buffer.
MAX_ATTRS = 32

#: Per-trace span cap — children beyond it are dropped (their attribute
#: adds fold into the nearest recorded ancestor) and counted on the trace.
MAX_SPANS = 512


def mint_id() -> int:
    """A non-zero 64-bit random id.

    Trace and span ids are random, not counters: a trace continued from
    an upstream carrier mixes ids minted by different processes, and
    random 64-bit values cannot collide the way a per-process
    ``itertools.count`` does.
    """
    value = 0
    while value == 0:
        value = int.from_bytes(os.urandom(8), "big")
    return value


def format_id(value: int) -> str:
    """Canonical 16-hex-digit rendering of a trace/span id."""
    return f"{value:016x}"


class SpanContext(NamedTuple):
    """The serializable trace-context carrier for cross-hop propagation.

    Exactly the tuple a remote hop needs to continue the trace: which
    trace, which span to parent under, and whether the trace was sampled
    (an unsampled carrier tells the remote side to record nothing).  It
    crosses HTTP boundaries as a ``traceparent``-style header.
    """

    trace_id: int
    span_id: int
    sampled: bool

    def to_header(self) -> str:
        """``00-<trace 32hex>-<span 16hex>-<flags 2hex>`` (W3C shape; the
        64-bit trace id is zero-padded into the 128-bit field)."""
        return f"00-{self.trace_id:032x}-{self.span_id:016x}-{int(self.sampled):02x}"

    @classmethod
    def from_header(cls, text: Optional[str]) -> Optional["SpanContext"]:
        """Parse a carrier header; ``None`` on anything malformed."""
        if not text:
            return None
        parts = text.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_hex, span_hex, flags_hex = parts
        if version != "00" or len(trace_hex) != 32 or len(span_hex) != 16:
            return None
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
            flags = int(flags_hex, 16)
        except ValueError:
            return None
        if trace_id == 0 or span_id == 0:
            return None
        return cls(trace_id, span_id, bool(flags & 1))


class Span:
    """One timed interval in a trace, with bounded attributes."""

    __slots__ = (
        "name", "detail", "span_id", "started_s", "ended_s",
        "attrs", "children", "stats_enter", "stats_exit",
    )

    def __init__(self, name: str, detail: str = "") -> None:
        self.name = name
        self.detail = detail
        self.span_id = mint_id()
        self.started_s = time.perf_counter()
        self.ended_s: Optional[float] = None
        self.attrs: dict = {}
        self.children: list[Span] = []
        self.stats_enter: Optional[dict] = None
        self.stats_exit: Optional[dict] = None

    @property
    def duration_s(self) -> float:
        end = self.ended_s if self.ended_s is not None else time.perf_counter()
        return end - self.started_s

    def add(self, key: str, amount: int = 1) -> None:
        """Accumulate a numeric attribute (bounded: new keys are dropped
        once the span holds :data:`MAX_ATTRS`)."""
        attrs = self.attrs
        current = attrs.get(key)
        if current is not None:
            attrs[key] = current + amount
        elif len(attrs) < MAX_ATTRS:
            attrs[key] = amount

    def set(self, key: str, value) -> None:
        """Set a (non-accumulating) attribute, same bound as :meth:`add`."""
        if key in self.attrs or len(self.attrs) < MAX_ATTRS:
            self.attrs[key] = value

    def storage_delta(self) -> dict[str, int]:
        """Inclusive stats-counter deltas over this span (empty when the
        trace carries no stats block)."""
        if self.stats_enter is None or self.stats_exit is None:
            return {}
        return {
            key: self.stats_exit[key] - self.stats_enter[key]
            for key in self.stats_exit
            if self.stats_exit[key] != self.stats_enter[key]
        }

    def to_dict(self, base: Optional[float] = None) -> dict:
        """JSON-friendly rendering (the ``/debug/traces`` format).

        With ``base`` (the trace root's ``started_s``) each span carries
        ``start_ms`` — its offset from the trace start — which is what
        the Chrome trace-event exporter lays spans out by.
        """
        payload: dict = {
            "name": self.name,
            "span_id": format_id(self.span_id),
            "duration_ms": round(self.duration_s * 1e3, 4),
        }
        if base is not None:
            payload["start_ms"] = round((self.started_s - base) * 1e3, 4)
        if self.detail:
            payload["detail"] = self.detail
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        delta = self.storage_delta()
        if delta:
            payload["storage"] = delta
        if self.children:
            payload["children"] = [child.to_dict(base) for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms)"


class Trace:
    """A finished (or in-flight) request trace: one span tree.

    :ivar trace_id: 64-bit random id (:func:`mint_id`), or the parent
        carrier's id when this trace continues a remote one.
    :ivar parent_span_id: the remote parent span when started from a
        :class:`SpanContext` carrier, else ``0``.
    :ivar started_at: wall-clock start (``time.time``), for log lines.
    :ivar dropped_spans: children not recorded because the trace hit
        :data:`MAX_SPANS`; their attribute adds folded into ancestors.
    """

    __slots__ = (
        "trace_id", "parent_span_id", "root", "started_at",
        "dropped_spans", "span_count",
    )

    def __init__(self, root: Span, parent: Optional[SpanContext] = None) -> None:
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            self.trace_id = mint_id()
            self.parent_span_id = 0
        self.root = root
        self.started_at = time.time()
        self.dropped_spans = 0
        self.span_count = 1

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    @property
    def hex_id(self) -> str:
        return format_id(self.trace_id)

    def to_dict(self) -> dict:
        payload = {
            "trace_id": self.hex_id,
            "started_at": self.started_at,
            "duration_ms": round(self.root.duration_s * 1e3, 4),
            "root": self.root.to_dict(base=self.root.started_s),
        }
        if self.parent_span_id:
            payload["parent_span_id"] = format_id(self.parent_span_id)
        if self.dropped_spans:
            payload["dropped_spans"] = self.dropped_spans
        return payload


class _Context:
    """Active trace state: the trace, the open span, the stats block."""

    __slots__ = ("trace", "current", "stats")

    def __init__(self, trace: Trace, stats, current: Optional[Span] = None) -> None:
        self.trace = trace
        self.current = current if current is not None else trace.root
        self.stats = stats


class _Suppression:
    """The active-context value for a request whose upstream carrier said
    *do not sample*: unlike the ``None`` default ("undecided"), this pins
    the decision for the whole request, so downstream samplers — the
    engine's own ``tracer.start`` calls, shard carriers — record nothing
    instead of rolling their own dice."""

    __slots__ = ()
    trace = None
    current = None
    stats = None


_SUPPRESSED = _Suppression()

#: The active trace context.  ``None`` almost everywhere: tracing is
#: sampled, and untraced requests never touch it beyond this one load.
_ACTIVE: contextvars.ContextVar[Optional[_Context]] = contextvars.ContextVar(
    "repro_trace", default=None
)


def current_span() -> Optional[Span]:
    """The open span in this context, or ``None`` (tracing inactive)."""
    ctx = _ACTIVE.get()
    return ctx.current if ctx is not None else None


def current_context() -> Optional[SpanContext]:
    """The carrier for the open span — what a remote hop should parent
    under — or ``None`` when tracing is inactive."""
    ctx = _ACTIVE.get()
    if ctx is None or ctx.trace is None:
        return None
    return SpanContext(ctx.trace.trace_id, ctx.current.span_id, True)


def current_trace_id() -> Optional[str]:
    """The active trace's hex id (for exemplars, response headers), or
    ``None`` when tracing is inactive."""
    ctx = _ACTIVE.get()
    if ctx is None or ctx.trace is None:
        return None
    return format_id(ctx.trace.trace_id)


def span_add(key: str, amount: int = 1) -> None:
    """Accumulate onto the open span; a branch when tracing is inactive."""
    ctx = _ACTIVE.get()
    if ctx is not None and ctx.current is not None:
        ctx.current.add(key, amount)


class _NoopSpan:
    """Shared attribute sink for untraced paths — instrumented code can
    call ``add``/``set`` on whatever a ``with span(...)``
    yielded without checking whether tracing is live."""

    __slots__ = ()

    def add(self, key: str, amount: int = 1) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _NoopHandle:
    """Shared do-nothing context manager for untraced paths."""

    __slots__ = ()
    trace = None

    def __enter__(self):
        return NOOP_SPAN

    def __exit__(self, *exc):
        return False


NOOP = _NoopHandle()


class _SpanHandle:
    """Context manager that pushes a child span on the active trace."""

    __slots__ = ("_ctx", "_span", "_parent")
    trace = None

    def __init__(self, ctx: _Context, name: str, detail: str) -> None:
        self._ctx = ctx
        self._span = Span(name, detail)
        self._parent = None

    def __enter__(self) -> Span:
        ctx = self._ctx
        span = self._span
        span.started_s = time.perf_counter()
        if ctx.stats is not None:
            span.stats_enter = ctx.stats.snapshot()
        self._parent = ctx.current
        self._parent.children.append(span)
        ctx.current = span
        ctx.trace.span_count += 1
        return span

    def __exit__(self, *exc) -> bool:
        ctx = self._ctx
        span = self._span
        span.ended_s = time.perf_counter()
        if ctx.stats is not None:
            span.stats_exit = ctx.stats.snapshot()
        ctx.current = self._parent
        return False


def span(name: str, detail: str = ""):
    """A child span of the active span — :data:`NOOP` when no trace is
    active in this context or the trace is at its span budget."""
    ctx = _ACTIVE.get()
    if ctx is None or ctx.trace is None:
        return NOOP
    if ctx.trace.span_count >= MAX_SPANS:
        ctx.trace.dropped_spans += 1
        return NOOP
    return _SpanHandle(ctx, name, detail)


class _Fragment:
    """A span handle minted on one thread and *entered* on another.

    :func:`fork` attaches the child span to the submitter's open span
    immediately (so parentage is decided at fan-out, not at whichever
    pool thread picks the task up) and returns this handle; the
    submitted callable enters it on the pool thread, which activates a
    fresh context sharing the same trace.  The token-paired reset in
    ``__exit__`` guarantees a long-lived executor thread never leaks the
    span past the task, even on exceptions.
    """

    __slots__ = ("_trace", "_span", "_stats", "_token")
    trace = None

    def __init__(self, trace: Trace, span_obj: Span, stats) -> None:
        self._trace = trace
        self._span = span_obj
        self._stats = stats
        self._token = None

    def __enter__(self) -> Span:
        span_obj = self._span
        span_obj.started_s = time.perf_counter()
        if self._stats is not None:
            span_obj.stats_enter = self._stats.snapshot()
        self._token = _ACTIVE.set(_Context(self._trace, self._stats, span_obj))
        return span_obj

    def __exit__(self, *exc) -> bool:
        span_obj = self._span
        span_obj.ended_s = time.perf_counter()
        if self._stats is not None:
            span_obj.stats_exit = self._stats.snapshot()
        _ACTIVE.reset(self._token)
        return False


def fork(name: str, detail: str = ""):
    """A child span for work handed to another thread (scatter-gather).

    Plain threads do not inherit contextvars, and N scatter tasks run
    concurrently so they cannot share the submitter's single open-span
    cursor either.  ``fork`` is the explicit hand-off: the child span is
    attached under the submitter's open span *now*, and entering the
    returned handle inside the submitted callable makes it the active
    span on the pool thread (children recorded there nest under it).
    :data:`NOOP` when no trace is active or the span budget is spent —
    safe to enter anywhere.
    """
    ctx = _ACTIVE.get()
    if ctx is None:
        return NOOP
    if ctx.trace is None:
        # A suppressed request: the "decided: no" state must ride onto
        # the pool thread too, or the shard's own engine would sample.
        return _SuppressedHandle()
    trace = ctx.trace
    if trace.span_count >= MAX_SPANS:
        trace.dropped_spans += 1
        return NOOP
    span_obj = Span(name, detail)
    span_obj.set("fork", True)
    ctx.current.children.append(span_obj)
    trace.span_count += 1
    return _Fragment(trace, span_obj, ctx.stats)


def wrap(fn, name: str = "", detail: str = ""):
    """Capture the caller's context; the returned callable restores it
    around ``fn`` in whichever thread runs it.

    This is the explicit hand-off for ``loop.run_in_executor``, which —
    unlike ``asyncio.to_thread`` — does *not* propagate contextvars.
    The offload is sequential (the event loop awaits the future), so the
    worker thread may safely advance the same trace context the loop
    side will resume afterwards.  With ``name``, the call additionally
    runs inside a child span of the captured active span.
    """
    captured = contextvars.copy_context()
    if not name:
        def call(*args, **kwargs):
            return captured.run(fn, *args, **kwargs)
        return call

    def call(*args, **kwargs):
        def inside():
            with span(name, detail):
                return fn(*args, **kwargs)
        return captured.run(inside)
    return call


class _SuppressedHandle:
    """Context manager pinning "sampling decided: no" on this context
    for the duration of a request (an unsampled upstream carrier)."""

    __slots__ = ("_token",)
    trace = None

    def __enter__(self):
        self._token = _ACTIVE.set(_SUPPRESSED)
        return NOOP_SPAN

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)
        return False


class _RootHandle:
    """Context manager owning a whole trace in this context."""

    __slots__ = ("_tracer", "trace", "_ctx", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        detail: str,
        stats,
        parent: Optional[SpanContext] = None,
    ) -> None:
        self._tracer = tracer
        self.trace = Trace(Span(name, detail), parent=parent)
        self._ctx = _Context(self.trace, stats)
        self._token = None

    def __enter__(self) -> Span:
        self.trace.root.started_s = time.perf_counter()
        if self._ctx.stats is not None:
            self.trace.root.stats_enter = self._ctx.stats.snapshot()
        self._token = _ACTIVE.set(self._ctx)
        return self.trace.root

    def __exit__(self, *exc) -> bool:
        root = self.trace.root
        root.ended_s = time.perf_counter()
        if self._ctx.stats is not None:
            root.stats_exit = self._ctx.stats.snapshot()
        _ACTIVE.reset(self._token)
        self._tracer._record(self.trace)
        return False


class Tracer:
    """Sampling decisions plus the recorders.

    :param capacity: ring-buffer size for recent traces (and, separately,
        for the slow-query log).
    :param sample_rate: fraction of requests traced.  ``0`` disables
        tracing (requests pay one branch), ``1`` traces everything, and a
        rate ``r`` in between traces every ``round(1/r)``-th request —
        deterministic, so tests and the overhead benchmark can pin it.
    :param slow_threshold_s: traces at least this slow are appended to the
        slow-query log with their full span tree and logged as a warning;
        ``None`` disables the log.
    """

    def __init__(
        self,
        capacity: int = 64,
        sample_rate: float = 0.0,
        slow_threshold_s: Optional[float] = None,
    ) -> None:
        self.sample_rate = sample_rate
        self.slow_threshold_s = slow_threshold_s
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=max(capacity, 1))
        self._slow: deque = deque(maxlen=max(capacity, 1))
        self._admitted = 0
        self._sampled = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def _sample(self) -> bool:
        rate = self.sample_rate
        if rate <= 0.0:
            return False
        with self._lock:
            self._admitted += 1
            if rate >= 1.0:
                self._sampled += 1
                return True
            period = max(round(1.0 / rate), 1)
            if self._admitted % period == 0:
                self._sampled += 1
                return True
        return False

    def start(
        self,
        name: str,
        detail: str = "",
        stats=None,
        force: bool = False,
        parent: Optional[SpanContext] = None,
    ):
        """A context manager for one request.

        Starts a new trace when none is active in this context (subject
        to sampling unless ``force``); degrades to a plain child span
        when a trace is already active; yields the shared no-op span
        (and records nothing) when not sampled.  With a ``parent``
        carrier the upstream sampling decision is honored verbatim: a
        sampled carrier roots a trace that takes the carrier's trace id
        and records the remote parent span,
        an unsampled carrier *suppresses* tracing for the whole request
        (downstream samplers inside it record nothing either).  After
        the ``with`` block the handle's ``trace`` attribute holds the
        finished :class:`Trace` (root starts only).  A forced start roots
        a trace of its own inside a request sampled out (an explicit
        profile request is answered whatever the request's sampling).

        Sampling is parent-based all the way down: a root start that
        fails its own dice roll *also* suppresses the request rather
        than leaving the context undecided — otherwise every nested
        ``start`` below it (the engine's, each scatter leg's) would
        re-roll the same rate, multiplying the effective sample rate by
        the nesting depth and fragmenting the request into partial inner
        traces instead of the one tree per request the stitching
        contract promises.  (A fully disabled tracer still returns the
        shared no-op: with ``sample_rate == 0`` there is no downstream
        dice to pre-empt, and that path stays allocation-free.)
        """
        active = _ACTIVE.get()
        if active is not None and (active.trace is not None or not force):
            return span(name, detail)
        if parent is not None:
            if not parent.sampled:
                return _SuppressedHandle()
            return _RootHandle(self, name, detail, stats, parent=parent)
        if not force and not self._sample():
            if self.sample_rate > 0.0:
                return _SuppressedHandle()
            return NOOP
        return _RootHandle(self, name, detail, stats)

    def _record(self, trace: Trace) -> None:
        slow = (
            self.slow_threshold_s is not None
            and trace.duration_s >= self.slow_threshold_s
        )
        with self._lock:
            self._recent.append(trace)
            if slow:
                self._slow.append(trace)
        if slow:
            logger.warning(
                "slow request: %s %s took %.1f ms (threshold %.1f ms)",
                trace.root.name,
                trace.root.detail,
                trace.duration_s * 1e3,
                self.slow_threshold_s * 1e3,
            )

    # -- reads -----------------------------------------------------------------

    def recent(self) -> list[Trace]:
        """Newest-last copies of the ring buffer."""
        with self._lock:
            return list(self._recent)

    def slow(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {"admitted": self._admitted, "sampled": self._sampled}

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()
