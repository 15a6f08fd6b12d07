"""Tokenizer and recursive-descent parser for vDataGuide specifications.

Grammar (paper Section 4.1, with the obvious repair that a list entry may
itself carry a brace block, as every example in the paper does)::

    spec   :=  entry+
    entry  :=  label block?
    block  :=  '{' item* '}'
    item   :=  '*' | '**' | entry

A *label* is a (possibly dot-qualified) type name; ``@name`` attribute labels
and the ``#text`` label are accepted so a spec can pin leaves explicitly.
"""

from __future__ import annotations

from repro.errors import SpecParseError
from repro.vdataguide.ast import SpecNode, Star, StarStar

_LABEL_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.@#:"
)
_WHITESPACE = set(" \t\r\n")

#: Deepest brace nesting a specification may have.  The parser and the
#: resolver's label walk recurse once a level, so this keeps both well
#: inside the interpreter's recursion limit on any thread; deeper input is
#: a :class:`SpecParseError`.  A deep *virtual* hierarchy needs no deep
#: spec: ``**`` mirrors a subtree of any depth.
MAX_DEPTH = 128


class _Tokens:
    """Token stream over a specification string."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def peek(self) -> str:
        """Next token without consuming it: ``{``, ``}``, ``*``, ``**``,
        a label, or ``""`` at end of input."""
        self._skip_whitespace()
        if self.pos >= len(self.text):
            return ""
        char = self.text[self.pos]
        if char in "{}":
            return char
        if char == "*":
            return "**" if self.text.startswith("**", self.pos) else "*"
        if char in _LABEL_CHARS:
            end = self.pos
            while end < len(self.text) and self.text[end] in _LABEL_CHARS:
                end += 1
            return self.text[self.pos : end]
        raise SpecParseError(f"unexpected character {char!r}", self.pos)

    def take(self) -> str:
        token = self.peek()
        self.pos += len(token)
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise SpecParseError(f"expected {token!r}, got {got!r}", self.pos)


def parse_spec(text: str) -> list[SpecNode]:
    """Parse a specification into a forest of :class:`SpecNode` entries.

    :raises SpecParseError: on syntax errors, including wildcards at the
        top level (a virtual hierarchy needs named roots), and on nesting
        deeper than :data:`MAX_DEPTH`.
    """
    tokens = _Tokens(text)
    entries: list[SpecNode] = []
    while True:
        token = tokens.peek()
        if token == "":
            break
        if token in ("{", "}", "*", "**"):
            raise SpecParseError(
                f"expected a label at the top level, got {token!r}", tokens.pos
            )
        entries.append(_parse_entry(tokens, 1))
    if not entries:
        raise SpecParseError("empty specification", 0)
    return entries


def _parse_entry(tokens: _Tokens, depth: int) -> SpecNode:
    label = tokens.take()
    node = SpecNode(label)
    if tokens.peek() == "{":
        if depth > MAX_DEPTH:
            raise SpecParseError(
                f"specification nested deeper than {MAX_DEPTH} levels", tokens.pos
            )
        tokens.expect("{")
        while True:
            token = tokens.peek()
            if token == "}":
                tokens.expect("}")
                return node
            if token == "":
                raise SpecParseError(f"unclosed block for {label!r}", tokens.pos)
            if token == "*":
                tokens.take()
                node.children.append(Star())
            elif token == "**":
                tokens.take()
                node.children.append(StarStar())
            elif token == "{":
                raise SpecParseError("a block must follow a label", tokens.pos)
            else:
                node.children.append(_parse_entry(tokens, depth + 1))
    return node


def parse_vdataguide(text: str, guide):  # type: ignore[no-untyped-def]
    """Parse *and resolve* a specification against ``guide``.

    Convenience wrapper combining :func:`parse_spec` with
    :func:`repro.vdataguide.resolve.resolve_spec`; returns a
    :class:`~repro.vdataguide.ast.VGuide` with level arrays already built.
    """
    from repro.core.level_arrays import build_level_arrays
    from repro.vdataguide.resolve import resolve_spec

    vguide = resolve_spec(parse_spec(text), guide)
    build_level_arrays(vguide)
    return vguide
