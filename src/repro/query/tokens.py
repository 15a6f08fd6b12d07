"""Lexer for the query language.

The lexer is pull-based and position-aware: the parser can read tokens and,
when it recognizes the start of a direct element constructor, switch to
character-level scanning from the current offset (XML syntax is not token-
compatible with the expression syntax).  ``Lexer.pos`` is therefore public
to the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryParseError

#: Multi-character symbols, longest first so maximal munch works.
_SYMBOLS = [
    "//",
    "::",
    ":=",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "/",
    ",",
    "|",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "@",
    "$",
    ".",
]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789-.")
_WHITESPACE = set(" \t\r\n")

@dataclass(frozen=True)
class Token:
    """One lexical token.

    :ivar kind: ``NAME``, ``STRING``, ``NUMBER``, ``SYMBOL``, ``VARIABLE``
        or ``EOF``.
    :ivar value: the token text (string literals are unquoted, variables
        drop the ``$``).
    :ivar start: character offset of the token's first character.
    :ivar end: offset one past the token's last character.
    """

    kind: str
    value: str
    start: int
    end: int


class Lexer:
    """Pull lexer over a query string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> QueryParseError:
        return QueryParseError(message, self.pos if position is None else position)

    def skip_whitespace(self) -> None:
        text = self.text
        while self.pos < len(text):
            if text[self.pos] in _WHITESPACE:
                self.pos += 1
            elif text.startswith("(:", self.pos):
                end = text.find(":)", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 2
            else:
                return

    def next_token(self) -> Token:
        """Scan and consume the next token."""
        self.skip_whitespace()
        text = self.text
        start = self.pos
        if start >= len(text):
            return Token("EOF", "", start, start)
        char = text[start]

        if char in ("'", '"'):
            end = text.find(char, start + 1)
            if end < 0:
                raise self.error("unterminated string literal", start)
            self.pos = end + 1
            return Token("STRING", text[start + 1 : end], start, self.pos)

        if char.isdigit() or (char == "." and start + 1 < len(text) and text[start + 1].isdigit()):
            end = start
            seen_dot = False
            while end < len(text) and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # ".." is a path step, not part of a number.
                    if text.startswith("..", end):
                        break
                    seen_dot = True
                end += 1
            self.pos = end
            return Token("NUMBER", text[start:end], start, end)

        if char == "$":
            end = start + 1
            if end >= len(text) or text[end] not in _NAME_START:
                raise self.error("expected a variable name after '$'", start)
            while end < len(text) and text[end] in _NAME_CHARS:
                end += 1
            self.pos = end
            return Token("VARIABLE", text[start + 1 : end], start, end)

        if char in _NAME_START:
            end = start
            while end < len(text) and text[end] in _NAME_CHARS:
                end += 1
            # A trailing '.' belongs to path syntax, not the name.
            while end > start and text[end - 1] == ".":
                end -= 1
            # Allow "fn:name" style prefixes as part of the name.
            if end < len(text) and text[end] == ":" and not text.startswith("::", end):
                prefix_end = end + 1
                if prefix_end < len(text) and text[prefix_end] in _NAME_START:
                    end = prefix_end
                    while end < len(text) and text[end] in _NAME_CHARS:
                        end += 1
            self.pos = end
            return Token("NAME", text[start:end], start, end)

        for symbol in _SYMBOLS:
            if text.startswith(symbol, start):
                self.pos = start + len(symbol)
                return Token("SYMBOL", symbol, start, self.pos)

        raise self.error(f"unexpected character {char!r}", start)
