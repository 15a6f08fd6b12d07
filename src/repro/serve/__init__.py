"""The serving tier — the repo's one HTTP stack: asyncio frontend,
admission control, and WAL-shipped read replicas over the query service.

The package splits along the request path:

:mod:`repro.serve.admission`
    the admission controller — bounded queue, concurrency limit, load
    shedding (HTTP 429 + ``Retry-After``).
:mod:`repro.serve.replica`
    WAL-shipped read replicas: :class:`~repro.serve.replica.ReplicaSet`
    ships every applied op to N replicas, tracks lag, and falls back to
    the primary for reads it cannot serve fresh enough.
:mod:`repro.serve.app`
    the protocol-independent request router — the only route table
    (query / update / explain / metrics / replication / healthz / trace
    endpoints) and error mapping — with per-query cost budgets.
:mod:`repro.serve.http`
    the asyncio HTTP/1.1 server (keep-alive, graceful drain) that feeds
    :mod:`~repro.serve.app` and hosts the worker pool.

Everything is stdlib-only.  An event loop sits in front of a bounded
worker pool, which is what lets the admission controller see (and shed)
load *before* a thread is committed to it.
"""

from repro.serve.admission import AdmissionController, ServiceOverloaded
from repro.serve.app import ServingApp, build_serving
from repro.serve.http import AsyncHTTPServer, serve_async
from repro.serve.replica import Replica, ReplicaSet, ShipLog

__all__ = [
    "AdmissionController",
    "AsyncHTTPServer",
    "Replica",
    "ReplicaSet",
    "ServiceOverloaded",
    "ServingApp",
    "ShipLog",
    "build_serving",
    "serve_async",
]
