"""E6 — transformed values: range stitching vs materialize + serialize."""

import pytest

from repro.core.values import ValueStats, write
from repro.query.engine import Engine
from repro.workloads.books import books_document
from repro.xmlmodel.serializer import serialize


@pytest.fixture(scope="module")
def value_setup():
    engine = Engine()
    engine.load("book.xml", books_document(300, seed=6))
    vdoc = engine.virtual("book.xml", "book { ** }")
    return vdoc, vdoc.roots()


def test_spliced_values(benchmark, value_setup):
    _, roots = value_setup

    def run():
        stats, parts = ValueStats(), []
        for vnode in roots:
            write(vnode, parts, stats)
        return stats, "".join(parts)

    stats, _ = benchmark(run)
    benchmark.extra_info["spliced_ranges"] = stats.spliced_ranges
    assert stats.spliced_ranges == len(roots)
    assert stats.constructed_elements == 0


def test_constructed_values(benchmark, value_setup):
    vdoc, roots = value_setup

    def run():
        return "".join(serialize(vdoc.copy_subtree(vnode)) for vnode in roots)

    text = benchmark(run)
    assert text == "".join(vdoc.value(vnode) for vnode in roots)
