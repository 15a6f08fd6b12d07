"""A from-scratch parser for the XML subset the paper's workloads use.

Supported: elements, attributes (single or double quoted), character data,
CDATA sections, comments, processing instructions, the XML declaration, the
five predefined entities plus decimal/hex character references, and a
DOCTYPE whose internal subset declares general entities
(``<!ENTITY uuml "ü">`` … ``H&uuml;tter``, the DBLP shape).  Not supported
(not needed by any workload): external and parameter entities, any other
markup declaration, entity values holding markup, and namespaces beyond
treating ``a:b`` as an opaque tag name — each fails with a structured
error, as does an entity that refers to itself, nests deeper than
:data:`ENTITY_NESTING_LIMIT` or expands past
:data:`ENTITY_EXPANSION_LIMIT` characters in one document.  The external
DTD a DOCTYPE may name is not read.

The parser is deliberately strict — mismatched or unclosed tags raise
:class:`~repro.errors.XmlParseError` with line/column information — because
downstream components (numbering, value indexes) rely on well-formed input.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import Attribute, Document, Element, Node, Text

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

#: Characters that declared entities may expand to, in total, in one
#: document (the "billion laughs" guard).
ENTITY_EXPANSION_LIMIT = 1 << 20
#: How deep declared entities may refer to one another.
ENTITY_NESTING_LIMIT = 16

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789-.")
_WHITESPACE = set(" \t\r\n")

# The patterns of the element loop; names and whitespace as above.
_NAME = r"[A-Za-z_:][-.0-9A-Za-z_:]*"
#: A start tag's name (after its ``<``) and, with no attributes, its close.
_START_TAG = re.compile(rf"({_NAME})(?:[ \t\r\n]*(/?>))?")
#: The close of a start tag, after its attributes.
_TAG_CLOSE = re.compile(r"[ \t\r\n]*(/?>)")
#: One attribute: its name and its double- or single-quoted value.
_ATTRIBUTE = re.compile(
    rf"""[ \t\r\n]*({_NAME})[ \t\r\n]*=[ \t\r\n]*(?:"([^"]*)"|'([^']*)')"""
)
#: An end tag's name (after its ``</``) and its ``>``.
_END_TAG = re.compile(rf"({_NAME})[ \t\r\n]*>")


class _Cursor:
    """Tracks a position within the source string and raises rich errors.
    Carries the general entities a DOCTYPE declared (``None`` without
    one), their expansions so far, and how many characters those made."""

    __slots__ = ("source", "pos", "entities", "expanded", "expanded_chars")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.entities: Optional[dict[str, str]] = None
        self.expanded: dict[str, str] = {}
        self.expanded_chars = 0

    def error(self, message: str, at: Optional[int] = None) -> XmlParseError:
        position = self.pos if at is None else at
        line = self.source.count("\n", 0, position) + 1
        last_newline = self.source.rfind("\n", 0, position)
        column = position - last_newline
        return XmlParseError(message, position, line, column)

    def at_end(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self) -> str:
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def startswith(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        source = self.source
        while self.pos < len(source) and source[self.pos] in _WHITESPACE:
            self.pos += 1

    def read_name(self) -> str:
        if self.at_end() or self.peek() not in _NAME_START:
            raise self.error("expected a name")
        start = self.pos
        source = self.source
        while self.pos < len(source) and source[self.pos] in _NAME_CHARS:
            self.pos += 1
        return source[start : self.pos]

    def read_until(self, token: str, what: str) -> str:
        end = self.source.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.source[self.pos : end]
        self.pos = end + len(token)
        return chunk


def _decode_references(
    raw: str, cursor: _Cursor, offset: int, active: tuple = ()
) -> str:
    """Replace entity and character references in ``raw`` — the source
    text from ``offset`` on — with their text.  ``active``: the declared
    entities whose replacement text ``raw`` is (errors then point at the
    reference in the source, ``offset``)."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            return "".join(parts)
        parts.append(raw[index:amp])
        at = offset if active else offset + amp
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise cursor.error("unterminated entity reference", at)
        entity = raw[amp + 1 : semi]
        if entity.startswith("#"):
            parts.append(_character(entity, cursor, at))
        elif entity in _ENTITIES:
            parts.append(_ENTITIES[entity])
        elif cursor.entities is not None and entity in cursor.entities:
            parts.append(_expand(entity, cursor, at, active))
        else:
            raise cursor.error(f"unknown entity &{entity};", at)
        index = semi + 1


def _character(entity: str, cursor: _Cursor, at: int) -> str:
    """The character a ``#N`` / ``#xH`` reference names."""
    try:
        if entity.startswith("#x") or entity.startswith("#X"):
            return chr(int(entity[2:], 16))
        return chr(int(entity[1:]))
    except ValueError as exc:
        raise cursor.error(f"bad character reference &{entity};", at) from exc


def _expand(name: str, cursor: _Cursor, at: int, active: tuple) -> str:
    """The text a declared entity stands for, its own references expanded
    (once per document), counted against the expansion limit."""
    text = cursor.expanded.get(name)
    if text is None:
        if name in active:
            raise cursor.error(f"recursive entity reference &{name};", at)
        if len(active) >= ENTITY_NESTING_LIMIT:
            raise cursor.error(
                f"entity references nest deeper than {ENTITY_NESTING_LIMIT}", at
            )
        text = _decode_references(cursor.entities[name], cursor, at, (*active, name))
        cursor.expanded[name] = text
    cursor.expanded_chars += len(text)
    if cursor.expanded_chars > ENTITY_EXPANSION_LIMIT:
        raise cursor.error(
            f"entity expansion exceeds {ENTITY_EXPANSION_LIMIT} characters", at
        )
    return text


def _skip_misc(cursor: _Cursor) -> None:
    """Skip whitespace, comments, PIs, and the XML declaration; read a
    DOCTYPE's entity declarations."""
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->", "comment")
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>", "processing instruction")
        elif cursor.startswith("<!DOCTYPE"):
            _parse_doctype(cursor)
        else:
            return


def _parse_doctype(cursor: _Cursor) -> None:
    """``<!DOCTYPE name [external id] [[ internal subset ]]>``: the
    external DTD is not read; the internal subset may hold general
    entity declarations, comments and processing instructions."""
    cursor.pos += len("<!DOCTYPE")
    cursor.skip_whitespace()
    cursor.read_name()
    cursor.skip_whitespace()
    for keyword in ("SYSTEM", "PUBLIC"):
        if cursor.startswith(keyword):
            cursor.pos += len(keyword)
            for _ in range(2 if keyword == "PUBLIC" else 1):
                cursor.skip_whitespace()
                _read_literal(cursor, "external identifier")
            cursor.skip_whitespace()
    if cursor.peek() == "[":
        cursor.pos += 1
        _parse_internal_subset(cursor)
        cursor.skip_whitespace()
    cursor.expect(">")


def _parse_internal_subset(cursor: _Cursor) -> None:
    """Declarations up to (and past) the subset's closing ``]``."""
    if cursor.entities is None:
        cursor.entities = {}
    while True:
        cursor.skip_whitespace()
        if cursor.at_end():
            raise cursor.error("unterminated DOCTYPE internal subset")
        if cursor.peek() == "]":
            cursor.pos += 1
            return
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->", "comment")
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>", "processing instruction")
        elif cursor.startswith("<!ENTITY"):
            _parse_entity_declaration(cursor)
        elif cursor.peek() == "%":
            raise cursor.error("parameter entity references are not supported")
        else:
            raise cursor.error(
                "unsupported markup declaration in the DOCTYPE internal subset"
            )


def _parse_entity_declaration(cursor: _Cursor) -> None:
    """``<!ENTITY name "value">``: the value's character references are
    replaced now, its entity references when the entity is used (the
    first declaration of a name binds, as in XML)."""
    cursor.pos += len("<!ENTITY")
    cursor.skip_whitespace()
    if cursor.peek() == "%":
        raise cursor.error("parameter entities are not supported")
    name = cursor.read_name()
    cursor.skip_whitespace()
    if cursor.startswith("SYSTEM") or cursor.startswith("PUBLIC"):
        raise cursor.error(f"external entity {name!r} is not supported")
    start = cursor.pos + 1
    literal = _read_literal(cursor, "entity value")
    if "%" in literal:
        raise cursor.error("parameter entity references are not supported", start)
    value = _character_references(literal, cursor, start)
    if "<" in value:
        raise cursor.error(f"entity {name!r} holds markup, which is not supported", start)
    cursor.skip_whitespace()
    cursor.expect(">")
    if name not in _ENTITIES:
        cursor.entities.setdefault(name, value)


def _read_literal(cursor: _Cursor, what: str) -> str:
    quote = cursor.peek()
    if quote not in ("'", '"'):
        raise cursor.error(f"{what} must be quoted")
    cursor.pos += 1
    return cursor.read_until(quote, what)


def _character_references(literal: str, cursor: _Cursor, offset: int) -> str:
    """``literal`` with its ``&#…;`` references replaced; entity
    references stay for expansion at use."""
    parts: list[str] = []
    index = 0
    while True:
        amp = literal.find("&#", index)
        if amp < 0:
            parts.append(literal[index:])
            return "".join(parts)
        semi = literal.find(";", amp)
        if semi < 0:
            raise cursor.error("unterminated character reference", offset + amp)
        parts.append(literal[index:amp])
        parts.append(_character(literal[amp + 1 : semi], cursor, offset + amp))
        index = semi + 1


def _parse_element(cursor: _Cursor, keep_whitespace: bool) -> Element:
    """Parse the element at the cursor (its ``<``) with everything inside
    it and leave the cursor past its end tag.

    One loop over the markup, with the open elements on a stack, so nesting
    depth costs no recursion: each turn reads one start tag with its
    attributes (:data:`_START_TAG`, :data:`_ATTRIBUTE`), then the content up
    to the next start tag — text by ``str.find``, comments, CDATA, PIs and
    end tags (:data:`_END_TAG`).  A pattern that fails to match hands the
    spot to an ``_*_error`` helper, which reads it with the cursor and
    reports what is wrong where.
    """
    source = cursor.source
    find = source.find
    starts = source.startswith
    size = len(source)
    cursor.expect("<")
    at = cursor.pos - 1
    open_elements: list[Element] = []
    texts: list[str] = []
    while True:
        # A start tag at ``at``.
        match = _START_TAG.match(source, at + 1)
        if match is None:
            raise cursor.error("expected a name", at + 1)
        tag, close = match.group(1, 2)
        element = Element(tag)
        if close is None:
            close, at = _attributes(cursor, element, match.end(1))
        else:
            at = match.end()
        if open_elements:
            parent = open_elements[-1]
            element.parent = parent
            parent._children.append(element)
        if close == ">":
            open_elements.append(element)
        elif not open_elements:
            cursor.pos = at
            return element
        # Content up to the next start tag.
        while True:
            lt = find("<", at)
            if lt != at:
                if lt < 0:
                    lt = size
                raw = source[at:lt]
                texts.append(_decode_references(raw, cursor, at) if "&" in raw else raw)
                at = lt
                if at == size:
                    raise cursor.error(f"unclosed element <{open_elements[-1].tag}>", at)
            marker = source[at + 1 : at + 2]
            if marker == "/":
                element = open_elements.pop()
                if texts:
                    _add_text(element, texts, keep_whitespace)
                match = _END_TAG.match(source, at + 2)
                if match is None or match.group(1) != element.tag:
                    raise _end_tag_error(cursor, at + 2, element.tag)
                at = match.end()
                if not open_elements:
                    cursor.pos = at
                    return element
            elif marker == "!" and starts("<!--", at):
                end = find("-->", at + 4)
                if end < 0:
                    raise cursor.error("unterminated comment", at + 4)
                at = end + 3
            elif marker == "!" and starts("<![CDATA[", at):
                end = find("]]>", at + 9)
                if end < 0:
                    raise cursor.error("unterminated CDATA section", at + 9)
                texts.append(source[at + 9 : end])
                at = end + 3
            elif marker == "?":
                end = find("?>", at + 2)
                if end < 0:
                    raise cursor.error("unterminated processing instruction", at + 2)
                at = end + 2
            else:
                if texts:
                    _add_text(open_elements[-1], texts, keep_whitespace)
                break


def _attributes(cursor: _Cursor, element: Element, at: int) -> tuple[str, int]:
    """Read ``element``'s attributes from ``at`` (just past its tag name)
    to the end of its start tag; return the closing ``>`` or ``/>`` and
    the position past it."""
    source = cursor.source
    children = element._children
    names: set[str] = set()
    while True:
        match = _TAG_CLOSE.match(source, at)
        if match is not None:
            return match.group(1), match.end()
        match = _ATTRIBUTE.match(source, at)
        if match is None:
            raise _attribute_error(cursor, at, names)
        name = match.group(1)
        if name in names:
            raise cursor.error(f"duplicate attribute {name!r}", match.end(1))
        names.add(name)
        quoted = match.lastindex
        value = _decode_references(match.group(quoted), cursor, match.start(quoted))
        attribute = Attribute(name, value)
        attribute.parent = element
        children.append(attribute)
        at = match.end()


def _add_text(element: Element, texts: list[str], keep_whitespace: bool) -> None:
    """Append the pending character data as one text node (unless it is
    whitespace only and whitespace is stripped)."""
    value = "".join(texts)
    texts.clear()
    if keep_whitespace or value.strip():
        text = Text(value)
        text.parent = element
        element._children.append(text)


def _attribute_error(cursor: _Cursor, at: int, names: set[str]) -> XmlParseError:
    """The error at ``at``, where neither the end of a start tag nor a
    well-formed attribute begins."""
    cursor.pos = at
    cursor.skip_whitespace()
    if cursor.at_end():
        return cursor.error("unterminated start tag")
    if cursor.peek() == "/":
        return cursor.error("expected '>'")
    name = cursor.read_name()
    if name in names:
        return cursor.error(f"duplicate attribute {name!r}")
    cursor.skip_whitespace()
    cursor.expect("=")
    cursor.skip_whitespace()
    if cursor.peek() not in ("'", '"'):
        return cursor.error("attribute value must be quoted")
    return cursor.error("unterminated attribute value", cursor.pos + 1)


def _end_tag_error(cursor: _Cursor, at: int, tag: str) -> XmlParseError:
    """The error in the end tag whose name should start at ``at``."""
    cursor.pos = at
    closing = cursor.read_name()
    if closing != tag:
        return cursor.error(f"mismatched end tag </{closing}> for <{tag}>")
    cursor.skip_whitespace()
    return cursor.error("expected '>'")


def parse_document(source: str, uri: str = "", keep_whitespace: bool = False) -> Document:
    """Parse a complete XML document into a :class:`Document` tree.

    :param source: the XML text.
    :param uri: identifier stored on the document (used by ``doc(uri)``).
    :param keep_whitespace: keep whitespace-only text nodes.  The default
        (``False``) strips them, matching the data-centric storage model the
        paper assumes ("with whitespace stripped", Section 6).
    :raises XmlParseError: if the input is not well formed.
    """
    cursor = _Cursor(source)
    document = Document(uri)
    _skip_misc(cursor)
    if cursor.at_end():
        raise cursor.error("document has no root element")
    document.append(_parse_element(cursor, keep_whitespace))
    _skip_misc(cursor)
    if not cursor.at_end():
        raise cursor.error("content after the root element")
    return document


def parse_fragment(source: str, keep_whitespace: bool = False) -> list[Node]:
    """Parse a forest of sibling elements (no single-root requirement).

    Useful for building test fixtures and for the element constructors the
    query engine evaluates.  Returns the parsed root nodes with no parent.
    """
    cursor = _Cursor(source)
    roots: list[Node] = []
    while True:
        _skip_misc(cursor)
        if cursor.at_end():
            return roots
        if cursor.peek() != "<":
            raise cursor.error("expected an element")
        roots.append(_parse_element(cursor, keep_whitespace))
