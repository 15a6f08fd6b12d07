"""Unit tests for the XML parser."""

import pytest

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import NodeKind
from repro.xmlmodel.parser import parse_document, parse_fragment


def test_single_element():
    document = parse_document("<a/>", "u")
    assert document.uri == "u"
    assert document.root.tag == "a"
    assert document.root.children == []


def test_nested_elements():
    document = parse_document("<a><b><c/></b></a>")
    root = document.root
    assert root.tag == "a"
    assert root.children[0].tag == "b"
    assert root.children[0].children[0].tag == "c"


def test_text_content():
    document = parse_document("<a>hello</a>")
    assert document.root.text() == "hello"


def test_mixed_content_order():
    document = parse_document("<a>x<b/>y</a>")
    kinds = [c.kind for c in document.root.children]
    assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]


def test_attributes():
    document = parse_document('<a x="1" y=\'2\'/>')
    assert document.root.get_attribute("x") == "1"
    assert document.root.get_attribute("y") == "2"


def test_duplicate_attribute_rejected():
    with pytest.raises(XmlParseError):
        parse_document('<a x="1" x="2"/>')


def test_entities_decoded():
    document = parse_document("<a>&lt;&gt;&amp;&quot;&apos;</a>")
    assert document.root.text() == "<>&\"'"


def test_numeric_character_references():
    document = parse_document("<a>&#65;&#x42;</a>")
    assert document.root.text() == "AB"


def test_unknown_entity_rejected():
    with pytest.raises(XmlParseError):
        parse_document("<a>&nope;</a>")


def test_cdata():
    document = parse_document("<a><![CDATA[<not parsed> & fine]]></a>")
    assert document.root.text() == "<not parsed> & fine"


def test_comments_skipped():
    document = parse_document("<a><!-- note --><b/><!-- tail --></a>")
    assert [c.name for c in document.root.children] == ["b"]


def test_processing_instruction_skipped():
    document = parse_document("<?xml version='1.0'?><a><?pi data?></a>")
    assert document.root.children == []


def test_doctype_skipped():
    document = parse_document("<!DOCTYPE a><a/>")
    assert document.root.tag == "a"


#: The DBLP shape (SNIPPETS.md, snippet 1): entities declared in the
#: DOCTYPE's internal subset, used in text and attribute values.
DBLP_WITH_ENTITIES = """<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp [
  <!ENTITY uuml "&#252;">
  <!ENTITY auml "ä">
  <!-- a comment inside the subset -->
  <!ENTITY Hutter "H&uuml;tter">
  <!ENTITY uuml "ignored: the first declaration binds">
]>
<dblp>
<inproceedings key="conf/sigmod/H&uuml;tterAK0L22" mdate="2022-08-03">
  <author>Thomas H&uuml;tter</author>
  <author>Christine Sch&auml;ler</author>
  <author>Thomas &Hutter;</author>
  <title>JEDI &amp; friends</title>
</inproceedings>
</dblp>"""


def test_internal_subset_entities_expand_in_text_and_attributes():
    document = parse_document(DBLP_WITH_ENTITIES)
    inproceedings = document.root.children[0]
    assert inproceedings.get_attribute("key") == "conf/sigmod/HütterAK0L22"
    authors = [c.text() for c in inproceedings.children if c.name == "author"]
    assert authors == ["Thomas Hütter", "Christine Schäler", "Thomas Hütter"]
    assert inproceedings.children[-1].text() == "JEDI & friends"


def test_an_entity_bearing_dblp_slice_loads_and_queries():
    from repro.query.engine import Engine

    engine = Engine()
    engine.load("dblp.xml", DBLP_WITH_ENTITIES)
    query = 'count(doc("dblp.xml")//author[. = "Thomas Hütter"])'
    assert engine.execute(query).values() == ["2"]
    view = 'virtualDoc("dblp.xml", "dblp.inproceedings.author { inproceedings { title } }")'
    assert "Sch&auml;ler" not in engine.execute(view + "//author").to_xml()
    assert "Schäler" in engine.execute(view + "//author").to_xml()


def test_doctype_with_an_external_id_is_skipped():
    document = parse_document('<!DOCTYPE dblp SYSTEM "dblp.dtd"><dblp/>')
    assert document.root.tag == "dblp"
    document = parse_document(
        '<!DOCTYPE a PUBLIC "-//X//Y" "a.dtd" [<!ENTITY e "x">]><a>&e;</a>'
    )
    assert document.root.text() == "x"


@pytest.mark.parametrize(
    "subset, body, message",
    [
        ('<!ENTITY e SYSTEM "e.xml">', "&e;", "external entity"),
        ('<!ENTITY e PUBLIC "-//E" "e.xml">', "&e;", "external entity"),
        ('<!ENTITY % p "x">', "", "parameter entities"),
        ('<!ENTITY e "%p;">', "&e;", "parameter entity references"),
        ("%p;", "", "parameter entity references"),
        ('<!ENTITY a "&b;"><!ENTITY b "&a;">', "&a;", "recursive entity reference"),
        ('<!ENTITY e "<b/>">', "&e;", "markup"),
        ('<!ENTITY e "&#60;b/>">', "&e;", "markup"),
        ("<!ELEMENT a (#PCDATA)>", "", "unsupported markup declaration"),
        ('<!ATTLIST a x CDATA "1">', "", "unsupported markup declaration"),
        ('<!ENTITY e "x">', "&f;", "unknown entity &f;"),
        ('<!ENTITY e x>', "", "must be quoted"),
    ],
)
def test_unsupported_doctype_content_fails_with_a_position(subset, body, message):
    source = f"<!DOCTYPE a [{subset}]>\n<a>{body}</a>"
    with pytest.raises(XmlParseError, match=message) as raised:
        parse_document(source)
    assert 0 < raised.value.position < len(source)
    assert raised.value.line in (1, 2)


def test_unterminated_internal_subset_fails():
    with pytest.raises(XmlParseError, match="unterminated DOCTYPE internal subset"):
        parse_document('<!DOCTYPE a [<!ENTITY e "x">')


def test_entity_expansion_is_bounded():
    from repro.xmlmodel.parser import ENTITY_EXPANSION_LIMIT, ENTITY_NESTING_LIMIT

    # "billion laughs": ten levels of tenfold nesting, 3·10^9 characters
    laughs = ['<!ENTITY l0 "lol">'] + [
        f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, 10)
    ]
    source = f"<!DOCTYPE a [{''.join(laughs)}]><a>&l9;</a>"
    with pytest.raises(XmlParseError, match=f"exceeds {ENTITY_EXPANSION_LIMIT}") as raised:
        parse_document(source)
    assert raised.value.position == source.index("&l9;")
    # many small uses add up the same way
    many = "&e;" * (ENTITY_EXPANSION_LIMIT // 1000 + 1)
    with pytest.raises(XmlParseError, match="exceeds"):
        parse_document(f'<!DOCTYPE a [<!ENTITY e "{"x" * 1000}">]><a>{many}</a>')
    # a chain deeper than the nesting bound, each link one character
    chain = ['<!ENTITY c0 "x">'] + [
        f'<!ENTITY c{i} "&c{i - 1};">' for i in range(1, ENTITY_NESTING_LIMIT + 2)
    ]
    with pytest.raises(XmlParseError, match="nest deeper"):
        parse_document(
            f"<!DOCTYPE a [{''.join(chain)}]><a>&c{ENTITY_NESTING_LIMIT + 1};</a>"
        )
    chain = chain[: ENTITY_NESTING_LIMIT]
    document = parse_document(
        f"<!DOCTYPE a [{''.join(chain)}]><a>&c{ENTITY_NESTING_LIMIT - 1};</a>"
    )
    assert document.root.text() == "x"


def test_whitespace_stripped_by_default():
    document = parse_document("<a>\n  <b/>\n</a>")
    assert [c.name for c in document.root.children] == ["b"]


def test_whitespace_kept_on_request():
    document = parse_document("<a>\n  <b/>\n</a>", keep_whitespace=True)
    kinds = [c.kind for c in document.root.children]
    assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]


def test_mismatched_tags_rejected():
    with pytest.raises(XmlParseError):
        parse_document("<a><b></a></b>")


def test_unclosed_element_rejected():
    with pytest.raises(XmlParseError):
        parse_document("<a><b>")


def test_content_after_root_rejected():
    with pytest.raises(XmlParseError):
        parse_document("<a/><b/>")


def test_empty_input_rejected():
    with pytest.raises(XmlParseError):
        parse_document("   ")


def test_error_carries_line_and_column():
    try:
        parse_document("<a>\n<b>\n</a>")
    except XmlParseError as error:
        assert error.line == 3
    else:  # pragma: no cover
        pytest.fail("expected XmlParseError")


def test_self_closing_with_space():
    document = parse_document("<a  />")
    assert document.root.tag == "a"


def test_end_tag_with_whitespace():
    document = parse_document("<a></a >")
    assert document.root.tag == "a"


def test_fragment_parses_forest():
    roots = parse_fragment("<a/><b/><c/>")
    assert [r.name for r in roots] == ["a", "b", "c"]


def test_fragment_empty_is_empty_list():
    assert parse_fragment("  ") == []


def test_attribute_entities():
    document = parse_document('<a x="&amp;&lt;"/>')
    assert document.root.get_attribute("x") == "&<"


def test_unquoted_attribute_rejected():
    with pytest.raises(XmlParseError):
        parse_document("<a x=1/>")


def test_names_with_punctuation():
    document = parse_document("<ns:a-b.c_d/>")
    assert document.root.tag == "ns:a-b.c_d"


def test_deep_nesting_parses():
    depth = 600
    document = parse_document("<a>" * depth + "x" + "</a>" * depth)
    node, levels = document.root, 1
    while node.children[0].kind is NodeKind.ELEMENT:
        node, levels = node.children[0], levels + 1
    assert levels == depth
    assert node.text() == "x"


def test_deep_unclosed_elements_raise_a_structured_error():
    with pytest.raises(XmlParseError, match="unclosed element <a>") as raised:
        parse_document("<a>" * 5000)
    assert raised.value.position == 15000
    assert (raised.value.line, raised.value.column) == (1, 15001)


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("<a><b></a>", "mismatched end tag </a> for <b>", 9),
        ("<a></ a>", "expected a name", 5),
        ("<a></a", "expected '>'", 6),
        ("<a x='1' x='2'/>", "duplicate attribute 'x'", 10),
        ("<a x/>", "expected '='", 4),
        ("<a x=1/>", "attribute value must be quoted", 5),
        ('<a x="1/>', "unterminated attribute value", 6),
        ("<a x='1'", "unterminated start tag", 8),
        ("<a / >", "expected '>'", 3),
        ("<a><1/></a>", "expected a name", 4),
        ("<a><!-- x</a>", "unterminated comment", 7),
        ("<a><![CDATA[x</a>", "unterminated CDATA section", 12),
        ("<a><?pi</a>", "unterminated processing instruction", 5),
        ("<a>&nope;</a>", "unknown entity &nope;", 3),
        ("<a>\n<b>x", "unclosed element <b>", 8),
        ("<a/><b/>", "content after the root element", 4),
        ("x<a/>", "expected '<'", 0),
    ],
)
def test_error_messages_and_positions(source, message, position):
    with pytest.raises(XmlParseError) as raised:
        parse_document(source)
    assert str(raised.value).startswith(message + " (")
    assert raised.value.position == position
