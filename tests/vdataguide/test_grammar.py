"""Unit tests for the vDataGuide grammar parser."""

import pytest

from repro.errors import SpecParseError
from repro.vdataguide.ast import SpecNode, Star, StarStar
from repro.vdataguide.grammar import parse_spec


def test_bare_label():
    (entry,) = parse_spec("title")
    assert entry.label == "title"
    assert entry.children == []


def test_paper_figure6_spec():
    (entry,) = parse_spec("title { author { name } }")
    assert entry.label == "title"
    (author,) = entry.children
    assert isinstance(author, SpecNode) and author.label == "author"
    (name,) = author.children
    assert name.label == "name"


def test_identity_spec_from_paper():
    (entry,) = parse_spec(
        "data { book { title author { name } publisher { location } } }"
    )
    (book,) = entry.children
    labels = [c.label for c in book.children]
    assert labels == ["title", "author", "publisher"]


def test_star_and_starstar():
    (entry,) = parse_spec("data { * ** }")
    assert isinstance(entry.children[0], Star)
    assert isinstance(entry.children[1], StarStar)


def test_forest():
    entries = parse_spec("a { b } c")
    assert [e.label for e in entries] == ["a", "c"]


def test_qualified_labels():
    (entry,) = parse_spec("x.y { a.b.c }")
    assert entry.label == "x.y"
    assert entry.children[0].label == "a.b.c"


def test_attribute_and_text_labels():
    (entry,) = parse_spec("a { @id #text }")
    assert [c.label for c in entry.children] == ["@id", "#text"]


def test_whitespace_insensitive():
    compact = parse_spec("a{b{c}d}")
    spaced = parse_spec("  a  {  b  {  c  }  d  }  ")
    assert compact[0].to_text() == spaced[0].to_text()


def test_to_text_roundtrip():
    source = "a { b { c } * d { ** } }"
    (entry,) = parse_spec(source)
    assert parse_spec(entry.to_text())[0].to_text() == entry.to_text()


def test_empty_spec_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("   ")


def test_unclosed_block_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("a { b")


def test_stray_close_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("a } b")


def test_top_level_wildcard_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("**")


def test_block_without_label_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("a { { b } }")


def test_unexpected_character_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("a { b, c }")


def test_deep_nesting_is_a_parse_error():
    from repro.vdataguide.grammar import MAX_DEPTH

    nested = "a { " * MAX_DEPTH + "a" + " }" * MAX_DEPTH
    assert parse_spec(nested)[0].label == "a"
    for text in ("a { " * (MAX_DEPTH + 1) + "a" + " }" * (MAX_DEPTH + 1), "a { " * 1000):
        with pytest.raises(SpecParseError, match="nested deeper than"):
            parse_spec(text)
