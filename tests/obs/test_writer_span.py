"""The ``result.to_xml`` span carries the value writer's counters: a
constructed level written column by column merges no parent, a level
whose child runs interleave merges each parent that has several."""

from repro.obs.trace import Tracer
from repro.query.engine import Engine
from repro.workloads import books_document
from repro.workloads.queries import ALL_WORKLOADS

INTERLEAVED = (
    "<r><p><a>1</a><b>2</b><a>3</a></p><p><a>4</a></p>"
    "<p><b>5</b><a>6</a></p><c>x</c></r>"
)


def _to_xml_span(engine: Engine, query: str):
    result = engine.execute(query)
    handle = Tracer().start("to_xml", force=True)
    with handle:
        result.to_xml()
    [span] = [s for s in handle.trace.root.children if s.name == "result.to_xml"]
    return span.attrs


def test_books_invert_titles_merge_no_parent():
    [suite] = [w for w in ALL_WORKLOADS if w.name == "books-invert"]
    engine = Engine()
    engine.load("book.xml", books_document(60, seed=9))
    attrs = _to_xml_span(engine, f'virtualDoc("book.xml", "{suite.spec}")//title')
    # titles are constructed, their authors spliced by row
    assert attrs["constructed_elements"] == 60 and attrs["spliced_ranges"] > 60
    assert attrs["merged_parents"] == 0


def test_an_interleaving_view_merges_its_parents():
    """The first ``p``'s ``a`` and ``b`` runs interleave, so the level is
    merged parent by parent; all three ``p`` have runs of two or more
    types (``c`` sits under each)."""
    engine = Engine()
    engine.load("i.xml", INTERLEAVED)
    attrs = _to_xml_span(engine, 'virtualDoc("i.xml", "p { a b c }")//p')
    assert attrs["constructed_elements"] == 3
    assert attrs["merged_parents"] == 3
