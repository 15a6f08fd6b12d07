"""Unit tests for the node classes."""

import pytest

from repro.xmlmodel.builder import elem, text
from repro.xmlmodel.nodes import (
    Attribute,
    Document,
    Element,
    NodeKind,
    TEXT_NAME,
    Text,
)


def test_element_requires_tag():
    with pytest.raises(ValueError):
        Element("")


def test_attribute_requires_name():
    with pytest.raises(ValueError):
        Attribute("", "v")


def test_kinds():
    assert Element("a").kind is NodeKind.ELEMENT
    assert Text("x").kind is NodeKind.TEXT
    assert Attribute("id", "1").kind is NodeKind.ATTRIBUTE
    assert Document("u").kind is NodeKind.DOCUMENT


def test_names():
    assert Element("book").name == "book"
    assert Attribute("id", "1").name == "@id"
    assert Text("x").name == TEXT_NAME
    assert Document("uri.xml").name == "uri.xml"


def test_append_sets_parent():
    parent = Element("a")
    child = parent.append(Element("b"))
    assert child.parent is parent
    assert parent.children == [child]


def test_attributes_sort_before_content():
    element = Element("a")
    element.append(Text("t"))
    element.append(Attribute("x", "1"))
    element.append(Attribute("y", "2"))
    kinds = [child.kind for child in element.children]
    assert kinds == [NodeKind.ATTRIBUTE, NodeKind.ATTRIBUTE, NodeKind.TEXT]
    assert [a.attr_name for a in element.attributes] == ["x", "y"]


def test_get_attribute():
    element = elem("a", x="1")
    assert element.get_attribute("x") == "1"
    assert element.get_attribute("missing") is None


def test_depth_and_path_names():
    document = Document("d")
    a = document.append(Element("a"))
    b = a.append(Element("b"))
    t = b.append(Text("v"))
    assert a.depth() == 1
    assert b.depth() == 2
    assert t.depth() == 3
    assert t.path_names() == ["a", "b", TEXT_NAME]


def test_iter_subtree_is_document_order():
    root = elem("r", elem("a", text("1")), elem("b"))
    names = [node.name for node in root.iter_subtree()]
    assert names == ["r", "a", TEXT_NAME, "b"]


def test_iter_ancestors():
    document = Document("d")
    a = document.append(Element("a"))
    b = a.append(Element("b"))
    assert list(b.iter_ancestors()) == [a, document]


def test_string_value_concatenates_text():
    root = elem("r", elem("a", text("x")), text("y"), elem("b", text("z")))
    assert root.string_value() == "xyz"


def test_string_value_includes_attributes_in_subtree():
    root = elem("r", text("t"), id="9")
    # Attribute values are part of the data model's textual content.
    assert "9" in root.string_value()
    assert "t" in root.string_value()


def test_element_text_only_immediate():
    root = elem("r", text("a"), elem("c", text("b")), text("d"))
    assert root.text() == "ad"


def test_document_root():
    document = Document("d")
    assert document.root is None
    first = document.append(Element("a"))
    assert document.root is first
