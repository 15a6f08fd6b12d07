"""Recursive-descent parser for the query language.

Grammar sketch (binding tightest last)::

    Expr        := FLWR | IfExpr | Quantified | SeqExpr
    SeqExpr     := OrExpr ("," OrExpr)*          # only where sequences legal
    OrExpr      := AndExpr ("or" AndExpr)*
    AndExpr     := CmpExpr ("and" CmpExpr)*
    CmpExpr     := RangeExpr (("="|"!="|"<"|"<="|">"|">=") RangeExpr)?
    RangeExpr   := AddExpr ("to" AddExpr)?
    AddExpr     := MulExpr (("+"|"-") MulExpr)*
    MulExpr     := SetExpr (("*"|"div"|"mod") SetExpr)*
    SetExpr     := UnionExpr (("except"|"intersect") UnionExpr)*
    UnionExpr   := PathExpr (("|"|"union") PathExpr)*
    PathExpr    := ("/" RelPath? | "//" RelPath | RelPath)
    RelPath     := StepOrPrimary (("/"|"//") Step)*
    Step        := (axis "::")? NodeTest Pred* | ".." Pred* | "@" name Pred*
    Primary     := literal | "$"var | "." | "(" Expr? ")" | FuncCall
                 | Constructor
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import QueryParseError
from repro.query import ast
from repro.query.tokens import Lexer, Token

_AXES = frozenset(
    [
        "self",
        "child",
        "parent",
        "ancestor",
        "ancestor-or-self",
        "descendant",
        "descendant-or-self",
        "following",
        "preceding",
        "following-sibling",
        "preceding-sibling",
        "attribute",
    ]
)

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}

#: Deepest nesting a query may have: each parenthesized expression,
#: predicate, function argument, FLWR / if / quantifier operand, element
#: constructor and enclosed ``{ }`` expression is one level.  The parser
#: recurses about sixteen frames a level, so this keeps a parse (and the
#: evaluation of what it builds) well inside the interpreter's recursion
#: limit on any thread; deeper input is a :class:`QueryParseError`.
MAX_DEPTH = 32


def parse_query(text: str) -> ast.Expr:
    """Parse ``text`` into an expression tree.

    :raises QueryParseError: on any syntax error, and on nesting deeper
        than :data:`MAX_DEPTH`.
    """
    return _parse_all(_Parser(text))


def _parse_all(parser: "_Parser") -> ast.Expr:
    expr = parser.parse_expr()
    token = parser.peek()
    if token.kind != "EOF":
        raise QueryParseError(
            f"unexpected {token.value!r} after the expression", token.start
        )
    return expr


class _Parser:
    def __init__(self, text: str, depth: int = 0) -> None:
        self.lexer = Lexer(text)
        self._buffer: list[Token] = []
        #: nesting levels open around the current position
        self.depth = depth

    def enter(self, position: Optional[int] = None) -> None:
        """Open one nesting level (``depth -= 1`` closes it); input nested
        past :data:`MAX_DEPTH` is a :class:`QueryParseError` at
        ``position`` (default: the next token)."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise QueryParseError(
                f"query nested deeper than {MAX_DEPTH} levels",
                self.peek().start if position is None else position,
            )

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        while len(self._buffer) <= ahead:
            self._buffer.append(self.lexer.next_token())
        return self._buffer[ahead]

    def take(self) -> Token:
        token = self.peek()
        self._buffer.pop(0)
        return token

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == "SYMBOL" and token.value == symbol:
            self.take()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        token = self.take()
        if token.kind != "SYMBOL" or token.value != symbol:
            raise QueryParseError(
                f"expected {symbol!r}, got {token.value or 'end of input'!r}",
                token.start,
            )

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "NAME" and token.value == word:
            self.take()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.take()
        if token.kind != "NAME" or token.value != word:
            raise QueryParseError(
                f"expected {word!r}, got {token.value or 'end of input'!r}",
                token.start,
            )

    def expect_variable(self) -> str:
        token = self.take()
        if token.kind != "VARIABLE":
            raise QueryParseError(
                f"expected a $variable, got {token.value!r}", token.start
            )
        return token.value

    # -- expression grammar -----------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "NAME":
            if token.value in ("for", "let") and self.peek(1).kind == "VARIABLE":
                return self._parse_flwr()
            if token.value == "if" and self._symbol_follows("("):
                return self._parse_if()
            if token.value in ("some", "every") and self.peek(1).kind == "VARIABLE":
                return self._parse_quantified()
        return self._parse_sequence()

    def _symbol_follows(self, symbol: str) -> bool:
        nxt = self.peek(1)
        return nxt.kind == "SYMBOL" and nxt.value == symbol

    def _parse_single(self) -> ast.Expr:
        """One ExprSingle: a FLWR/if/quantified form or an or-expression
        (no top-level comma)."""
        token = self.peek()
        if token.kind == "NAME":
            if token.value in ("for", "let") and self.peek(1).kind == "VARIABLE":
                return self._parse_flwr()
            if token.value == "if" and self._symbol_follows("("):
                return self._parse_if()
            if token.value in ("some", "every") and self.peek(1).kind == "VARIABLE":
                return self._parse_quantified()
        return self._parse_or()

    def _parse_sequence(self) -> ast.Expr:
        first = self._parse_single()
        if not (self.peek().kind == "SYMBOL" and self.peek().value == ","):
            return first
        exprs = [first]
        while self.accept_symbol(","):
            exprs.append(self._parse_single())
        return ast.SequenceExpr(tuple(exprs))

    def _parse_flwr(self) -> ast.Expr:
        self.enter()
        clauses: list[Union[ast.ForClause, ast.LetClause]] = []
        while True:
            if self.accept_keyword("for"):
                while True:
                    var = self.expect_variable()
                    position_var = None
                    if self.accept_keyword("at"):
                        position_var = self.expect_variable()
                    self.expect_keyword("in")
                    clauses.append(
                        ast.ForClause(var, self._parse_or(), position_var)
                    )
                    if not self.accept_symbol(","):
                        break
            elif self.accept_keyword("let"):
                while True:
                    var = self.expect_variable()
                    self.expect_symbol(":=")
                    clauses.append(ast.LetClause(var, self._parse_or()))
                    if not self.accept_symbol(","):
                        break
            else:
                break
        where = None
        if self.accept_keyword("where"):
            where = self._parse_or()
        order_by: list[ast.OrderSpec] = []
        if self.peek().kind == "NAME" and self.peek().value == "order":
            self.take()
            self.expect_keyword("by")
            while True:
                expr = self._parse_or()
                descending = False
                if self.accept_keyword("descending"):
                    descending = True
                else:
                    self.accept_keyword("ascending")
                order_by.append(ast.OrderSpec(expr, descending))
                if not self.accept_symbol(","):
                    break
        self.expect_keyword("return")
        return_expr = self.parse_expr()
        self.depth -= 1
        return ast.FLWRExpr(tuple(clauses), where, tuple(order_by), return_expr)

    def _parse_if(self) -> ast.Expr:
        self.enter()
        self.expect_keyword("if")
        self.expect_symbol("(")
        condition = self.parse_expr()
        self.expect_symbol(")")
        self.expect_keyword("then")
        then_expr = self.parse_expr()
        self.expect_keyword("else")
        else_expr = self.parse_expr()
        self.depth -= 1
        return ast.IfExpr(condition, then_expr, else_expr)

    def _parse_quantified(self) -> ast.Expr:
        self.enter()
        quantifier = self.take().value
        var = self.expect_variable()
        self.expect_keyword("in")
        expr = self._parse_or()
        self.expect_keyword("satisfies")
        condition = self.parse_expr()
        self.depth -= 1
        return ast.QuantifiedExpr(quantifier, var, expr, condition)

    def _parse_or(self) -> ast.Expr:
        # Every nested expression (parenthesized, predicate, argument,
        # operand) enters the grammar here: one nesting level.
        self.enter()
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._parse_and())
        self.depth -= 1
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self.accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_range()
        token = self.peek()
        if token.kind == "SYMBOL" and token.value in _COMPARISON_OPS:
            op = self.take().value
            return ast.BinaryOp(op, left, self._parse_range())
        return left

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self.accept_keyword("to"):
            return ast.BinaryOp("to", left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value in ("+", "-"):
                op = self.take().value
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_set()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value == "*":
                self.take()
                left = ast.BinaryOp("*", left, self._parse_set())
            elif token.kind == "NAME" and token.value in ("div", "mod"):
                op = self.take().value
                left = ast.BinaryOp(op, left, self._parse_set())
            else:
                return left

    def _parse_set(self) -> ast.Expr:
        left = self._parse_union()
        while True:
            token = self.peek()
            if token.kind == "NAME" and token.value in ("except", "intersect"):
                op = self.take().value
                left = ast.BinaryOp(op, left, self._parse_union())
            else:
                return left

    def _parse_union(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if (token.kind == "SYMBOL" and token.value == "|") or (
                token.kind == "NAME" and token.value == "union"
            ):
                self.take()
                left = ast.BinaryOp("|", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        signs = []
        while self.peek().kind == "SYMBOL" and self.peek().value in ("-", "+"):
            signs.append(self.take().value)
        expr = self._parse_path()
        for op in reversed(signs):
            expr = ast.UnaryOp(op, expr)
        return expr

    # -- paths ---------------------------------------------------------------

    def _parse_path(self) -> ast.Expr:
        token = self.peek()
        steps: list[ast.Step] = []
        if token.kind == "SYMBOL" and token.value == "/":
            self.take()
            start: Optional[ast.Expr] = ast.RootExpr()
            if not self._at_step_start():
                return ast.PathExpr(start, ())
            first_step = self._parse_step_or_primary(first=False)
            assert isinstance(first_step, ast.Step)
            steps.append(first_step)
        elif token.kind == "SYMBOL" and token.value == "//":
            self.take()
            start = ast.RootExpr()
            steps.append(
                ast.Step("descendant-or-self", ast.NodeTest("node"))
            )
            first_step = self._parse_step_or_primary(first=False)
            assert isinstance(first_step, ast.Step)
            steps.append(first_step)
        else:
            primary = self._parse_step_or_primary(first=True)
            if isinstance(primary, ast.Step):
                start = None
                steps.append(primary)
            else:
                start = primary
                if not (
                    self.peek().kind == "SYMBOL" and self.peek().value in ("/", "//")
                ):
                    return start if not steps else ast.PathExpr(start, tuple(steps))
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value == "/":
                self.take()
            elif token.kind == "SYMBOL" and token.value == "//":
                self.take()
                steps.append(ast.Step("descendant-or-self", ast.NodeTest("node")))
            else:
                break
            step = self._parse_step_or_primary(first=False)
            if not isinstance(step, ast.Step):
                raise QueryParseError("expected a path step", self.peek().start)
            steps.append(step)
        return ast.PathExpr(start, tuple(steps))

    def _at_step_start(self) -> bool:
        token = self.peek()
        if token.kind == "NAME":
            return True
        return token.kind == "SYMBOL" and token.value in ("*", "@", ".", "..")

    def _parse_step_or_primary(self, first: bool) -> Union[ast.Step, ast.Expr]:
        """Parse either an axis step or (only in first position) a primary
        expression with optional predicates."""
        token = self.peek()

        # ".." and "." and "@name"
        if token.kind == "SYMBOL" and token.value == ".":
            nxt = self.peek(1)
            if nxt.kind == "SYMBOL" and nxt.value == ".":
                # ".." written as two dots with no space is lexed as two
                # "." symbols.
                self.take()
                self.take()
                return ast.Step("parent", ast.NodeTest("node"), self._parse_predicates())
            self.take()
            if first:
                base: ast.Expr = ast.ContextItem()
                predicates = self._parse_predicates()
                return ast.FilterExpr(base, predicates) if predicates else base
            return ast.Step("self", ast.NodeTest("node"), self._parse_predicates())
        if token.kind == "SYMBOL" and token.value == "@":
            self.take()
            name_token = self.take()
            if name_token.kind == "SYMBOL" and name_token.value == "*":
                test = ast.NodeTest("wildcard")
            elif name_token.kind == "NAME":
                test = ast.NodeTest("name", name_token.value)
            else:
                raise QueryParseError("expected an attribute name", name_token.start)
            return ast.Step("attribute", test, self._parse_predicates())
        if token.kind == "SYMBOL" and token.value == "*":
            self.take()
            return ast.Step("child", ast.NodeTest("wildcard"), self._parse_predicates())

        # Primaries allowed only at the head of a relative path.
        if first and token.kind in ("STRING", "NUMBER", "VARIABLE"):
            return self._parse_filter()
        if first and token.kind == "SYMBOL" and token.value == "(":
            return self._parse_filter()
        if first and token.kind == "SYMBOL" and token.value == "<":
            return self._parse_constructor()

        if token.kind != "NAME":
            raise QueryParseError(
                f"expected a step or expression, got {token.value!r}", token.start
            )

        # axis::test
        if token.value in _AXES and self._symbol_follows("::"):
            axis = self.take().value
            self.expect_symbol("::")
            test = self._parse_node_test()
            return ast.Step(
                "attribute" if axis == "attribute" else axis,
                test,
                self._parse_predicates(),
            )

        # Function call (only as a path head: name followed by "(").
        if self._symbol_follows("(") and token.value not in ("text", "node"):
            if first:
                return self._parse_filter()
            raise QueryParseError(
                f"function calls may not appear mid-path: {token.value!r}",
                token.start,
            )

        test = self._parse_node_test()
        return ast.Step("child", test, self._parse_predicates())

    def _parse_node_test(self) -> ast.NodeTest:
        token = self.take()
        if token.kind == "SYMBOL" and token.value == "*":
            return ast.NodeTest("wildcard")
        if token.kind == "SYMBOL" and token.value == "@":
            name_token = self.take()
            if name_token.kind != "NAME":
                raise QueryParseError("expected an attribute name", name_token.start)
            return ast.NodeTest("name", name_token.value)
        if token.kind != "NAME":
            raise QueryParseError(f"expected a node test, got {token.value!r}", token.start)
        if token.value in ("text", "node") and self.accept_symbol("("):
            self.expect_symbol(")")
            return ast.NodeTest(token.value)
        return ast.NodeTest("name", token.value)

    def _parse_predicates(self) -> tuple[ast.Expr, ...]:
        predicates: list[ast.Expr] = []
        while self.accept_symbol("["):
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
        return tuple(predicates)

    def _parse_filter(self) -> ast.Expr:
        base = self._parse_primary()
        predicates = self._parse_predicates()
        return ast.FilterExpr(base, predicates) if predicates else base

    def _parse_primary(self) -> ast.Expr:
        token = self.take()
        if token.kind == "STRING":
            return ast.Literal(token.value)
        if token.kind == "NUMBER":
            value = float(token.value)
            return ast.Literal(int(value) if value.is_integer() and "." not in token.value else value)
        if token.kind == "VARIABLE":
            return ast.VarRef(token.value)
        if token.kind == "SYMBOL" and token.value == "(":
            if self.accept_symbol(")"):
                return ast.SequenceExpr(())
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.kind == "NAME":
            name = token.value
            if name.startswith("fn:"):
                name = name[3:]
            self.expect_symbol("(")
            args: list[ast.Expr] = []
            if not self.accept_symbol(")"):
                while True:
                    args.append(self._parse_single())
                    if self.accept_symbol(")"):
                        break
                    self.expect_symbol(",")
            return ast.FuncCall(name, tuple(args))
        raise QueryParseError(f"unexpected {token.value!r}", token.start)

    # -- element constructors ----------------------------------------------------

    def _parse_constructor(self) -> ast.ElementConstructor:
        """Parse a direct element constructor at character level.

        The opening ``<`` token has *not* been consumed; the buffer may
        hold lookahead tokens, so the scan restarts from the ``<`` offset.
        """
        open_token = self.take()
        # Rewind the raw cursor to just after '<' and drop stale lookahead.
        self.lexer.pos = open_token.end
        self._buffer.clear()
        return _ConstructorScanner(self).scan()


class _ConstructorScanner:
    """Character-level scanner for direct element constructors.

    Runs over the parser's raw query text; embedded ``{ expr }`` blocks are
    parsed recursively with a fresh :class:`_Parser` over the enclosed
    substring.
    """

    def __init__(self, parser: _Parser) -> None:
        self.parser = parser
        self.text = parser.lexer.text

    @property
    def pos(self) -> int:
        return self.parser.lexer.pos

    @pos.setter
    def pos(self, value: int) -> None:
        self.parser.lexer.pos = value

    def error(self, message: str) -> QueryParseError:
        return QueryParseError(message, self.pos)

    def scan(self) -> ast.ElementConstructor:
        """Scan from just after the opening ``<``."""
        self.parser.enter(self.pos)
        tag = self._scan_name()
        attributes = self._scan_attributes()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            content = ()
        else:
            self._expect(">")
            content = tuple(self._scan_content(tag))
        self.parser.depth -= 1
        return ast.ElementConstructor(tag, tuple(attributes), content)

    def _scan_name(self) -> str:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] in "_-.:"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a tag name in constructor")
        return text[start:self.pos]

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _expect(self, char: str) -> None:
        if not self.text.startswith(char, self.pos):
            raise self.error(f"expected {char!r} in constructor")
        self.pos += len(char)

    def _scan_attributes(self) -> list[ast.AttributeTemplate]:
        attributes: list[ast.AttributeTemplate] = []
        while True:
            self._skip_space()
            if self.pos >= len(self.text):
                raise self.error("unterminated constructor")
            if self.text[self.pos] in ">/":
                return attributes
            name = self._scan_name()
            if any(attribute.name == name for attribute in attributes):
                raise self.error(f"XQST0040: duplicate attribute {name!r} in constructor")
            self._skip_space()
            self._expect("=")
            self._skip_space()
            quote = self.text[self.pos]
            if quote not in ("'", '"'):
                raise self.error("constructor attribute value must be quoted")
            self.pos += 1
            parts = self._scan_template_parts(quote)
            attributes.append(ast.AttributeTemplate(name, tuple(parts)))

    def _scan_template_parts(self, quote: str) -> list:
        parts: list = []
        buffer: list[str] = []
        text = self.text
        while True:
            if self.pos >= len(text):
                raise self.error("unterminated attribute value in constructor")
            char = text[self.pos]
            if char == quote:
                self.pos += 1
                if buffer:
                    parts.append("".join(buffer))
                return parts
            if char == "{":
                if buffer:
                    parts.append("".join(buffer))
                    buffer = []
                parts.append(self._scan_embedded_expr())
            else:
                buffer.append(char)
                self.pos += 1

    def _scan_content(self, tag: str):
        parts: list = []
        buffer: list[str] = []
        text = self.text

        def flush() -> None:
            if buffer:
                chunk = "".join(buffer)
                buffer.clear()
                if chunk.strip():
                    parts.append(chunk)

        while True:
            if self.pos >= len(text):
                raise self.error(f"unterminated constructor <{tag}>")
            if text.startswith("</", self.pos):
                flush()
                self.pos += 2
                closing = self._scan_name()
                if closing != tag:
                    raise self.error(
                        f"mismatched constructor end tag </{closing}> for <{tag}>"
                    )
                self._skip_space()
                self._expect(">")
                return parts
            if text[self.pos] == "<":
                flush()
                self.pos += 1
                parts.append(self.scan_child())
            elif text[self.pos] == "{":
                flush()
                parts.append(self._scan_embedded_expr())
            else:
                buffer.append(text[self.pos])
                self.pos += 1

    def scan_child(self) -> ast.ElementConstructor:
        """Scan a nested constructor (after its ``<``)."""
        return _ConstructorScanner(self.parser).scan()

    def _scan_embedded_expr(self) -> ast.Expr:
        """Parse a ``{ expr }`` block by finding the balanced close brace
        and recursing with a fresh parser over the substring."""
        self._expect("{")
        start = self.pos
        depth = 1
        text = self.text
        position = start
        while position < len(text):
            char = text[position]
            if char in ("'", '"'):
                close = text.find(char, position + 1)
                if close < 0:
                    raise self.error("unterminated string inside { }")
                position = close + 1
                continue
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    inner = text[start:position]
                    self.pos = position + 1
                    return _parse_all(_Parser(inner, self.parser.depth))
            position += 1
        raise self.error("unterminated { } in constructor")
