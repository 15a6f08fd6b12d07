"""Admission control for the async serving tier.

The controller sits between the event loop's accept path and the worker
pool and enforces two limits *before* any query work happens:

* ``max_inflight`` — requests executing concurrently (the worker pool's
  effective concurrency);
* ``queue_limit`` — requests allowed to wait for a slot.  A request
  arriving to a full queue is shed immediately; a queued request that
  cannot get a slot within ``queue_timeout_s`` is shed on timeout.

Shedding raises :class:`ServiceOverloaded`, which the HTTP layer maps to
``429 Too Many Requests`` with a ``Retry-After`` hint — the client
contract for backpressure.  Everything is counted:
``serve.admitted`` / ``serve.shed`` (labelled with the reason) and the
``serve.queue_wait_seconds`` histogram, so the benchmark's
``serve.shed_share`` row and ``tests/serve/test_admission.py`` can tell
that the controller actually engaged.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.obs.trace import current_trace_id


class ServiceOverloaded(Exception):
    """The admission controller refused a request (HTTP 429).

    :ivar reason: ``"queue_full"`` or ``"queue_timeout"``.
    :ivar retry_after_s: backoff hint for the ``Retry-After`` header.
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(f"service overloaded ({reason}); retry later")
        self.reason = reason
        self.retry_after_s = retry_after_s

    def to_json(self) -> dict:
        return {
            "code": "overloaded",
            "reason": self.reason,
            "retry_after_s": round(self.retry_after_s, 3),
        }


class AdmissionController:
    """Bounded-queue admission with load shedding (see module doc).

    Single event loop only: state is mutated without locks on the
    assumption that :meth:`admit` / :meth:`release` run on one loop.
    """

    def __init__(
        self,
        max_inflight: int = 64,
        queue_limit: int = 128,
        queue_timeout_s: float = 0.5,
        metrics=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.queue_timeout_s = queue_timeout_s
        self.metrics = metrics
        self.inflight = 0
        self.waiting = 0
        self.admitted = 0
        self.shed = 0
        self._slots = asyncio.Semaphore(max_inflight)

    def _retry_after(self) -> float:
        """Backoff hint: the queue drain time at the current depth, with
        a floor of one queue timeout."""
        depth = max(self.waiting, 1)
        return max(
            self.queue_timeout_s, depth * self.queue_timeout_s / self.max_inflight
        )

    def _shed(self, reason: str) -> ServiceOverloaded:
        self.shed += 1
        if self.metrics is not None:
            self.metrics.incr("serve.shed", labels={"reason": reason})
        return ServiceOverloaded(reason, self._retry_after())

    async def admit(self) -> None:
        """Wait for an execution slot, or raise :class:`ServiceOverloaded`.

        Every successful ``admit`` must be paired with :meth:`release`
        (use :meth:`slot` for the context-managed form)."""
        if self._slots.locked() and self.waiting >= self.queue_limit:
            raise self._shed("queue_full")
        self.waiting += 1
        started = time.perf_counter()
        try:
            if self._slots.locked():
                await asyncio.wait_for(self._slots.acquire(), self.queue_timeout_s)
            else:  # a free slot: take it without a timeout task
                await self._slots.acquire()
        except (asyncio.TimeoutError, TimeoutError):
            raise self._shed("queue_timeout") from None
        finally:
            self.waiting -= 1
        self.inflight += 1
        self.admitted += 1
        if self.metrics is not None:
            self.metrics.incr("serve.admitted")
            self.metrics.observe(
                "serve.queue_wait_seconds",
                time.perf_counter() - started,
                exemplar=current_trace_id(),
            )

    async def __aenter__(self) -> "AdmissionController":
        await self.admit()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.release()

    def slot(self) -> "AdmissionController":
        """``async with controller.slot(): ...`` admits and releases."""
        return self

    def release(self) -> None:
        self.inflight -= 1
        self._slots.release()

    def snapshot(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "queue_limit": self.queue_limit,
            "queue_timeout_s": self.queue_timeout_s,
            "inflight": self.inflight,
            "waiting": self.waiting,
            "admitted": self.admitted,
            "shed": self.shed,
        }

    def gauges(self) -> dict[str, float]:
        """Instantaneous controller state for the Prometheus exposition
        (the counters ride in ``ServiceMetrics``; these are the gauges)."""
        return {
            "serve.inflight": float(self.inflight),
            "serve.queue_depth": float(self.waiting),
            "serve.slots_free": float(self.max_inflight - self.inflight),
            "serve.queue_capacity": float(self.queue_limit),
        }


class NullAdmission:
    """Admission disabled: every request admitted, nothing counted."""

    async def __aenter__(self) -> "NullAdmission":
        return self

    async def __aexit__(self, *exc_info) -> None:
        return None

    def slot(self) -> "NullAdmission":
        return self

    def snapshot(self) -> dict:
        return {"disabled": True}

    def gauges(self) -> dict[str, float]:
        return {}
