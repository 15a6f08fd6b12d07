"""Stateful fuzzing of the engine: arbitrary interleavings of loads,
reloads, virtual views, queries in both modes, persistence round-trips,
and cache clears must never disagree with each other or crash.
"""

from __future__ import annotations

import io

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.query.engine import Engine
from repro.storage.persist import dump_store, parse_store
from repro.workloads.books import books_document
from repro.workloads.treegen import random_document

_QUERIES = [
    'doc("{uri}")//a',
    'count(doc("{uri}")//b)',
    'doc("{uri}")//a[@id]/text()',
    'doc("{uri}")//b/..',
    'for $x in doc("{uri}")//a return count($x/*)',
    'virtualDoc("{uri}", "root {{ ** }}")//a/text()',
    'count(virtualDoc("{uri}", "root {{ ** }}")//b)',
]


class EngineMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.engine = Engine(buffer_capacity=8)
        self.loaded: list[str] = []
        self.counter = 0

    @rule(seed=st.integers(0, 50))
    def load_random_document(self, seed: int) -> None:
        uri = f"doc{self.counter}.xml"
        self.counter += 1
        self.engine.load(uri, random_document(seed, max_depth=4, max_children=3))
        self.loaded.append(uri)

    @rule(seed=st.integers(0, 50))
    def reload_existing(self, seed: int) -> None:
        if not self.loaded:
            return
        uri = self.loaded[seed % len(self.loaded)]
        self.engine.load(uri, random_document(seed + 1, max_depth=3, max_children=2))

    @rule(choice=st.integers(0, 10_000))
    def run_query_both_modes(self, choice: int) -> None:
        if not self.loaded:
            return
        uri = self.loaded[choice % len(self.loaded)]
        template = _QUERIES[choice % len(_QUERIES)]
        query = template.format(uri=uri)
        indexed = self.engine.execute(query, mode="indexed")
        tree = self.engine.execute(query, mode="tree")
        assert indexed.values() == tree.values(), query

    @rule(choice=st.integers(0, 10_000))
    def roundtrip_store(self, choice: int) -> None:
        if not self.loaded:
            return
        uri = self.loaded[choice % len(self.loaded)]
        buffer = io.BytesIO()
        dump_store(self.engine.store(uri), buffer)
        buffer.seek(0)
        reloaded = parse_store(buffer)
        fresh = Engine()
        fresh.attach(uri, reloaded)
        original = self.engine.execute(f'count(doc("{uri}")//node())')
        again = fresh.execute(f'count(doc("{uri}")//node())')
        assert original.items == again.items

    @rule()
    def clear_caches(self) -> None:
        self.engine.cold_caches()

    @invariant()
    def stats_never_negative(self) -> None:
        if not hasattr(self, "engine"):
            return
        for value in self.engine.stats.snapshot().values():
            assert value >= 0


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
