"""Engine facade tests: loading, modes, stats, explain, results."""

import pytest

from repro.errors import QueryEvaluationError, XmlParseError
from repro.query.engine import Engine
from repro.workloads.books import books_document


def test_load_from_text_and_document():
    engine = Engine()
    engine.load("a.xml", "<r><x/></r>")
    engine.load("b.xml", books_document(2, uri="ignored"))
    assert set(engine.uris()) == {"a.xml", "b.xml"}
    assert engine.document("b.xml").uri == "b.xml"


def test_load_invalid_xml():
    engine = Engine()
    with pytest.raises(XmlParseError):
        engine.load("a.xml", "<r>")


def test_unknown_uri():
    engine = Engine()
    with pytest.raises(QueryEvaluationError):
        engine.document("nope.xml")


def test_reload_invalidates_virtual_cache():
    engine = Engine()
    engine.load("a.xml", "<data><book><title>T</title><author>A</author></book></data>")
    before = engine.virtual("a.xml", "title { author }")
    engine.load("a.xml", "<data><book><title>U</title><author>B</author></book></data>")
    after = engine.virtual("a.xml", "title { author }")
    assert before is not after
    result = engine.execute('virtualDoc("a.xml", "title { author }")//author')
    assert result.values() == ["B"]


def test_a_bare_engine_parses_a_repeated_text_once(monkeypatch):
    """An engine built without a plan cache makes its own: a text it
    executes again is looked up, not parsed again."""
    import repro.query.parser as parser

    parsed = []
    parse_all = parser._parse_all

    def counting(state):
        parsed.append(state)
        return parse_all(state)

    monkeypatch.setattr(parser, "_parse_all", counting)
    engine = Engine()
    engine.load("book.xml", books_document(5, seed=1))
    for _ in range(5):
        assert engine.execute('count(doc("book.xml")//book)').values() == ["5"]
    assert len(parsed) == 1


def test_modes_agree(books_engine):
    queries = [
        'doc("book.xml")//book/title/text()',
        'doc("book.xml")//name/ancestor::book/title/text()',
        'count(doc("book.xml")//author)',
        'doc("book.xml")//book[title = "Databases vol. 1"]/author/name/text()',
        'doc("book.xml")//title/following-sibling::author/name/text()',
    ]
    for query in queries:
        indexed = books_engine.execute(query, mode="indexed")
        tree = books_engine.execute(query, mode="tree")
        assert indexed.values() == tree.values(), query


def test_invalid_mode(books_engine):
    with pytest.raises(QueryEvaluationError):
        books_engine.execute("1", mode="quantum")


def test_stats_accumulate(books_engine):
    books_engine.reset_stats()
    books_engine.execute('doc("book.xml")//title/following-sibling::author')
    assert books_engine.stats.comparisons > 0
    assert books_engine.stats.index_range_scans > 0
    books_engine.reset_stats()
    assert books_engine.stats.comparisons == 0


def test_tree_mode_does_no_index_scans(books_engine):
    books_engine.reset_stats()
    books_engine.execute('doc("book.xml")//title', mode="tree")
    assert books_engine.stats.index_range_scans == 0


def test_result_accessors(figure2_engine):
    result = figure2_engine.execute('doc("book.xml")//title/text()')
    assert len(result) == 2
    assert result[0].value == "X"
    assert [i.value for i in result] == ["X", "Y"]
    assert result.values() == ["X", "Y"]
    assert result.to_xml() == "XY"


def test_result_to_xml_atomics(figure2_engine):
    assert figure2_engine.execute("(1, 'a', true())").to_xml() == "1atrue"


def test_explain(figure2_engine):
    plan = figure2_engine.explain(
        'for $t in doc("book.xml")//title return <t>{ $t/text() }</t>'
    )
    assert "flwr" in plan
    assert "step descendant-or-self::node()" in plan
    assert "construct <t>" in plan
    assert "call doc()" in plan


def test_explain_various_nodes(figure2_engine):
    plan = figure2_engine.explain(
        "if (some $x in (1, 2) satisfies $x = 1) then 1 + 2 else -(3)"
    )
    assert "if" in plan and "some $x" in plan and "op '+'" in plan


def test_cold_caches(books_engine):
    books_engine.execute('doc("book.xml")//title')
    store = books_engine.store("book.xml")
    store.value_of(store.document.root.pbn)
    assert len(store.buffer_pool) > 0
    books_engine.cold_caches()
    assert len(store.buffer_pool) == 0


def test_context_item_execution(figure2_engine):
    root = figure2_engine.document("book.xml").root
    result = figure2_engine.execute("book/title/text()", context_item=root)
    assert result.values() == ["X", "Y"]


def test_constructed_counter_increments(figure2_engine):
    a = figure2_engine.execute("<a/>")[0]
    b = figure2_engine.execute("<b/>")[0]
    assert a.parent.uri != b.parent.uri


def test_save_and_open_roundtrip(tmp_path, books_engine):
    path = str(tmp_path / "books.vpbn")
    size = books_engine.save("book.xml", path)
    assert size > 0
    fresh = Engine()
    fresh.open(path)
    assert fresh.execute('count(doc("book.xml")//book)').items == [20]
    # Virtual views work on reopened stores too.
    result = fresh.execute(
        'count(virtualDoc("book.xml", "title { author }")//title)'
    )
    assert result.items == [20]


def test_open_with_uri_override(tmp_path, books_engine):
    path = str(tmp_path / "books.vpbn")
    books_engine.save("book.xml", path)
    fresh = Engine()
    fresh.open(path, uri="renamed.xml")
    assert fresh.execute('count(doc("renamed.xml")//book)').items == [20]


def test_opened_store_reports_into_engine_stats(tmp_path, books_engine):
    path = str(tmp_path / "books.vpbn")
    books_engine.save("book.xml", path)
    fresh = Engine()
    fresh.open(path)
    fresh.reset_stats()
    fresh.execute('doc("book.xml")//title')
    assert fresh.stats.index_range_scans > 0


def test_result_carries_elapsed_time(figure2_engine):
    result = figure2_engine.execute('doc("book.xml")//title')
    assert result.elapsed_seconds > 0


def test_logging_hooks(caplog):
    import logging

    engine = Engine()
    with caplog.at_level(logging.DEBUG, logger="repro.engine"):
        engine.load("a.xml", "<data><book><title>T</title><author>A</author></book></data>")
        engine.execute('virtualDoc("a.xml", "title { author }")//title')
    text = caplog.text
    assert "loaded 'a.xml'" in text
    assert "built virtual view" in text
    assert "query returned" in text
