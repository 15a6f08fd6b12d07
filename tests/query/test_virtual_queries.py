"""Queries over virtualDoc sources: every axis, values, and edge cases."""

import pytest

from repro.query.engine import Engine


SPEC = "title { author { name } }"


def q(engine, query):
    return engine.execute(query)


def test_virtual_child_steps(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")/title/author/name')
    assert result.values() == ["C", "D"]


def test_virtual_descendant(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//name')
    assert result.values() == ["C", "D"]


def test_virtual_text_step(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//title/text()')
    assert result.values() == ["X", "Y"]


def test_virtual_parent(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//name/..')
    assert [i.name for i in result] == ["author", "author"]


def test_virtual_ancestor(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//name/ancestor::*')
    assert [i.name for i in result] == ["title", "author", "title", "author"]


def test_virtual_self(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//name/self::name')
    assert len(result) == 2


def test_virtual_descendant_or_self(figure2_engine):
    result = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//author/descendant-or-self::*',
    )
    assert [i.name for i in result] == ["author", "name", "author", "name"]


def test_virtual_siblings(figure2_engine):
    result = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//title/text()/following-sibling::author',
    )
    assert len(result) == 2
    back = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//author/preceding-sibling::text()',
    )
    assert back.values() == ["X", "Y"]


def test_virtual_following_preceding(figure2_engine):
    result = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//author[1]/following::name',
    )
    assert result.values() == ["D"]
    # Note: a virtual title's *string value* is its transformed value
    # ("YD" — title text plus virtual author subtree), so the filter
    # compares text() rather than ".".
    result = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//title[text() = "Y"]/preceding::name',
    )
    assert result.values() == ["C"]


def test_virtual_root_expr(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//name/ancestor::title/../title')
    # "/.." from a virtual root yields nothing; going up and back down works
    # within the virtual tree.
    assert len(result) == 0 or all(i.name == "title" for i in result)


def test_virtual_predicates(figure2_engine):
    result = q(
        figure2_engine,
        f'virtualDoc("book.xml", "{SPEC}")//title[author/name = "D"]/text()',
    )
    assert result.values() == ["Y"]


def test_virtual_positional_predicate(figure2_engine):
    result = q(figure2_engine, f'(virtualDoc("book.xml", "{SPEC}")//title)[2]/text()')
    assert result.values() == ["Y"]


def test_virtual_wildcard(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")/title/*')
    assert [i.name for i in result] == ["author", "author"]


def test_virtual_count(figure2_engine):
    result = q(
        figure2_engine,
        f'for $t in virtualDoc("book.xml", "{SPEC}")//title return count($t/author)',
    )
    assert result.items == [1, 1]


def test_virtual_string_value_is_transformed(figure2_engine):
    # The string value of a virtual title includes its virtual author
    # subtree, not the publisher that sat next to it originally.
    result = q(figure2_engine, f'string((virtualDoc("book.xml", "{SPEC}")//title)[1])')
    assert result.items == ["XC"]


def test_virtual_node_embedded_in_constructor(figure2_engine):
    result = q(
        figure2_engine,
        f'for $t in virtualDoc("book.xml", "{SPEC}")//title return <t>{{$t}}</t>',
    )
    assert result.to_xml() == (
        "<t><title>X<author><name>C</name></author></title></t>"
        "<t><title>Y<author><name>D</name></author></title></t>"
    )


def test_virtual_doc_to_xml(figure2_engine):
    result = q(figure2_engine, f'virtualDoc("book.xml", "{SPEC}")//author')
    assert result.to_xml() == (
        "<author><name>C</name></author><author><name>D</name></author>"
    )


def test_virtual_doc_handle_writes_its_roots_without_a_wrapper(figure2_engine):
    """The handle serializes the way ``doc()`` does: its (virtual) roots,
    in virtual root order, nothing around them."""
    from repro.xmlmodel.parser import parse_document
    from repro.xmlmodel.serializer import serialize

    result = q(figure2_engine, 'virtualDoc("book.xml", "name title { author }")')
    xml = result.to_xml()
    assert xml == (
        "<name>C</name><name>D</name>"
        "<title>X<author/></title><title>Y<author/></title>"
    )
    assert serialize(parse_document(f"<w>{xml}</w>")) == f"<w>{xml}</w>"
    stored = q(figure2_engine, 'doc("book.xml")').to_xml()
    assert stored.startswith("<data>") and "#" not in stored


def test_virtual_doc_handle_in_constructor_appends_each_root(figure2_engine):
    from repro.xmlmodel.parser import parse_document
    from repro.xmlmodel.serializer import serialize

    result = q(figure2_engine, f'<w>{{virtualDoc("book.xml", "{SPEC}")}}</w>')
    xml = result.to_xml()
    assert xml == (
        "<w><title>X<author><name>C</name></author></title>"
        "<title>Y<author><name>D</name></author></title></w>"
    )
    assert serialize(parse_document(xml)) == xml
    assert [child.name for child in result[0].children] == ["title", "title"]


def test_case2_query(figure2_engine):
    result = q(figure2_engine, 'virtualDoc("book.xml", "name { author }")//name/author')
    assert len(result) == 2
    parents = q(figure2_engine, 'virtualDoc("book.xml", "name { author }")//author/..')
    assert [i.name for i in parents] == ["name", "name"]


def test_identity_spec_query_equals_original(figure2_engine):
    virtual = q(figure2_engine, 'virtualDoc("book.xml", "data { ** }")//location/text()')
    original = q(figure2_engine, 'doc("book.xml")//location/text()')
    assert virtual.values() == original.values()


def test_orphan_not_reachable():
    engine = Engine()
    engine.load(
        "b.xml",
        "<data><book><title>T</title><author>A1</author></book>"
        "<book><author>A2</author></book></data>",
    )
    result = engine.execute('virtualDoc("b.xml", "title { author }")//author')
    assert result.values() == ["A1"]


def test_virtual_attribute_axis():
    engine = Engine()
    engine.load(
        "a.xml",
        '<data><book id="b1"><title lang="en">T</title><author>A</author></book></data>',
    )
    result = engine.execute('virtualDoc("a.xml", "title { author }")//title/@lang')
    assert result.values() == ["en"]
    wildcard = engine.execute('virtualDoc("a.xml", "title { author }")//title/@*')
    assert wildcard.values() == ["en"]


def test_virtual_cached_per_spec(figure2_engine):
    first = figure2_engine.virtual("book.xml", SPEC)
    second = figure2_engine.virtual("book.xml", SPEC)
    assert first is second
    different = figure2_engine.virtual("book.xml", "title")
    assert different is not first


def test_duplication_returns_each_original_once():
    engine = Engine()
    engine.load(
        "d.xml",
        "<data><book><title>T1</title><title>T2</title><author>A</author></book></data>",
    )
    result = engine.execute('virtualDoc("d.xml", "title { author }")//author')
    # The author occupies two virtual positions but is one original node.
    assert result.values() == ["A"]
    per_title = engine.execute(
        'for $t in virtualDoc("d.xml", "title { author }")//title '
        "return count($t/author)"
    )
    assert per_title.items == [1, 1]


def test_unfused_descendant_path_reaches_roots(figure2_engine):
    """Regression: ``//title[pred]`` with a non-positional-but-unfusable
    predicate expands to descendant-or-self::node()/child::title — the
    virtual document handle itself must be part of the node() step or the
    virtual roots are unreachable."""
    result = figure2_engine.execute(
        f'virtualDoc("book.xml", "{SPEC}")//title[contains-text(., "c")]'
    )
    assert [i.node.string_value() for i in result] == ["X"]


def test_descendant_or_self_node_includes_document(figure2_engine):
    result = figure2_engine.execute(
        f'virtualDoc("book.xml", "{SPEC}")/descendant-or-self::node()'
    )
    from repro.query.items import VirtualDocItem

    assert isinstance(result[0], VirtualDocItem)
