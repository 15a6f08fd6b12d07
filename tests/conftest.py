"""Shared fixtures: the paper's running example, small engines, the
cross-strategy agreement helper and the codec arm the differential suites
are built on, and the ``served`` helper every HTTP test reaches the
server through."""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import pytest

from repro.dataguide.build import build_dataguide
from repro.pbn.succinct import SuccinctColumn, default_codec, set_default_codec
from repro.query.engine import Engine
from repro.serve import AsyncHTTPServer, ServingApp
from repro.workloads.books import books_document, paper_figure2

#: The strategies that answer over the *same* stored document and must be
#: byte-identical on every query: tree-walk, PBN-indexed, and relational.
EXACT_STRATEGIES = ("tree", "indexed", "sql")

#: All four strategies.  ``virtual`` answers over the virtual hierarchy
#: rather than a materialized copy, so cross-family comparisons follow the
#: duplication/order discipline (DESIGN.md) instead of byte equality.
ALL_STRATEGIES = ("tree", "indexed", "sql", "virtual")


def assert_strategies_agree(
    run: Callable[[str], object],
    strategies: Sequence[str] = EXACT_STRATEGIES,
    *,
    context: str = "",
    problems: Optional[list[str]] = None,
):
    """Require ``run(strategy)`` to return an identical payload for every
    strategy in ``strategies``; returns the baseline payload.

    ``run`` maps a strategy name to whatever the caller wants compared —
    typically ``(result.to_xml(), result.values())``.  ``context`` should
    carry the reproduction seed and query so a failure prints everything
    needed to replay it.  With ``problems`` given, mismatches are appended
    to the list (one line each) instead of raised, letting a suite report
    every divergence at once.
    """
    baseline_strategy = strategies[0]
    baseline = run(baseline_strategy)
    for strategy in strategies[1:]:
        payload = run(strategy)
        if payload != baseline:
            message = (
                f"strategy={strategy} disagrees with"
                f" strategy={baseline_strategy}: {context}\n"
                f"  {baseline_strategy}: {baseline!r:.300}\n"
                f"  {strategy}: {payload!r:.300}"
            )
            if problems is None:
                raise AssertionError(message)
            problems.append(message)
    return baseline


@pytest.fixture(scope="session")
def strategies_agree():
    """The :func:`assert_strategies_agree` helper, as a fixture so suites
    outside this package share one implementation."""
    return assert_strategies_agree


@pytest.fixture
def each_codec():
    """The codec arm of the differential suites: ``for codec in
    each_codec():`` runs its body once under raw type columns (the
    reference) and once under succinct ones.  Columns bind their codec
    when a query first builds them, so build *and* query inside the loop;
    the registry default is restored at teardown."""
    previous = default_codec()

    def arms():
        for codec in ("raw", "succinct"):
            set_default_codec(codec)
            yield codec

    try:
        yield arms
    finally:
        set_default_codec(previous)


def succinct_columns_queried(store) -> int:
    """How many of the type columns that queries built on ``store`` are
    :class:`SuccinctColumn` — a codec arm whose documents are too small
    to pass ``packable()`` would compare raw with raw.  (The accessor
    hands back an already built column without adding to
    ``column_bytes``; a column it has to build now was never queried.)"""
    count = 0
    for type_id in range(len(store.types_by_id)):
        before = store.stats.column_bytes
        column = store.type_index.column(type_id)
        if store.stats.column_bytes == before and type(column) is SuccinctColumn:
            count += 1
    return count


class Served:
    """What a test holds of a live server: blocking clients (urllib, raw
    sockets) talk to ``port``; ``service`` is what it serves."""

    def __init__(self, port: int, service) -> None:
        self.port = port
        self.service = service

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"


@contextmanager
def served(service):
    """Serve ``service`` on an OS-assigned port from an event loop on a
    daemon thread; drains the server and stops the loop on exit."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = AsyncHTTPServer(ServingApp(service))

    def on_loop(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(15)

    try:
        on_loop(server.start())
        try:
            yield Served(server.port, service)
        finally:
            on_loop(server.drain(2.0))
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive(), "served(): event loop did not stop"
        loop.close()


#: Figure 2's XML, used verbatim by many tests.
FIGURE2_XML = (
    "<data>"
    "<book><title>X</title><author><name>C</name></author>"
    "<publisher><location>W</location></publisher></book>"
    "<book><title>Y</title><author><name>D</name></author>"
    "<publisher><location>M</location></publisher></book>"
    "</data>"
)


@pytest.fixture
def figure2():
    """The paper's Figure 2 instance, numbered."""
    return paper_figure2()


@pytest.fixture
def figure2_guide(figure2):
    return build_dataguide(figure2)


@pytest.fixture
def books_engine():
    """An engine with a 20-book document loaded as ``book.xml``."""
    engine = Engine()
    engine.load("book.xml", books_document(20, seed=42))
    return engine


@pytest.fixture
def figure2_engine():
    """An engine with exactly the Figure 2 instance loaded."""
    engine = Engine()
    engine.load("book.xml", FIGURE2_XML)
    return engine
