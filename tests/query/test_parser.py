"""Unit tests for the query parser (AST shapes and error reporting)."""

import pytest

from repro.errors import QueryParseError
from repro.query import ast
from repro.query.parser import parse_query


def test_literal():
    assert parse_query("42") == ast.Literal(42)
    assert parse_query("2.5") == ast.Literal(2.5)
    assert parse_query("'x'") == ast.Literal("x")


def test_variable():
    assert parse_query("$v") == ast.VarRef("v")


def test_relative_path():
    expr = parse_query("a/b")
    assert isinstance(expr, ast.PathExpr)
    assert expr.start is None
    assert [s.test.name for s in expr.steps] == ["a", "b"]
    assert all(s.axis == "child" for s in expr.steps)


def test_absolute_path():
    expr = parse_query("/a")
    assert isinstance(expr.start, ast.RootExpr)


def test_double_slash_expands():
    expr = parse_query("//a")
    assert expr.steps[0].axis == "descendant-or-self"
    assert expr.steps[0].test.kind == "node"
    assert expr.steps[1] == ast.Step("child", ast.NodeTest("name", "a"))


def test_root_alone():
    expr = parse_query("/")
    assert isinstance(expr, ast.PathExpr)
    assert expr.steps == ()


def test_explicit_axes():
    expr = parse_query("ancestor::book/following-sibling::x")
    assert expr.steps[0].axis == "ancestor"
    assert expr.steps[1].axis == "following-sibling"


def test_attribute_abbreviation():
    expr = parse_query("a/@id")
    assert expr.steps[1].axis == "attribute"
    assert expr.steps[1].test == ast.NodeTest("name", "id")


def test_attribute_wildcard():
    expr = parse_query("a/@*")
    assert expr.steps[1].test.kind == "wildcard"


def test_dotdot_and_dot():
    expr = parse_query("a/../.")
    assert expr.steps[1].axis == "parent"
    assert expr.steps[2].axis == "self"


def test_text_and_node_tests():
    expr = parse_query("a/text()/node()")
    assert expr.steps[1].test.kind == "text"
    assert expr.steps[2].test.kind == "node"


def test_wildcard_step():
    expr = parse_query("*/b")
    assert expr.steps[0].test.kind == "wildcard"


def test_predicates():
    expr = parse_query("a[1][b = 'x']")
    step = expr.steps[0]
    assert len(step.predicates) == 2
    assert step.predicates[0] == ast.Literal(1)
    assert isinstance(step.predicates[1], ast.BinaryOp)


def test_path_from_variable():
    expr = parse_query("$t/author")
    assert expr.start == ast.VarRef("t")
    assert expr.steps[0].test.name == "author"


def test_filter_on_variable():
    expr = parse_query("$s[2]")
    assert isinstance(expr, ast.FilterExpr)


def test_parenthesized_path():
    expr = parse_query("(a, b)/c")
    assert isinstance(expr.start, ast.SequenceExpr)


def test_function_call():
    expr = parse_query("count($a)")
    assert expr == ast.FuncCall("count", (ast.VarRef("a"),))


def test_fn_prefix_stripped():
    assert parse_query("fn:concat('a', 'b')").name == "concat"


def test_function_in_path_head():
    expr = parse_query("doc('u')//x")
    assert isinstance(expr.start, ast.FuncCall)


def test_comparisons_and_arithmetic_precedence():
    expr = parse_query("1 + 2 * 3 = 7")
    assert expr.op == "="
    assert expr.left.op == "+"
    assert expr.left.right.op == "*"


def test_or_and_precedence():
    expr = parse_query("1 or 2 and 3")
    assert expr.op == "or"
    assert expr.right.op == "and"


def test_union_and_except():
    expr = parse_query("a | b except c")
    assert expr.op == "except"
    assert expr.left.op == "|"


def test_range():
    expr = parse_query("1 to 5")
    assert expr.op == "to"


def test_unary_minus():
    expr = parse_query("-3")
    assert isinstance(expr, ast.UnaryOp)


def test_flwr():
    expr = parse_query("for $x in a let $y := $x/b where $y return $y")
    assert isinstance(expr, ast.FLWRExpr)
    assert isinstance(expr.clauses[0], ast.ForClause)
    assert isinstance(expr.clauses[1], ast.LetClause)
    assert expr.where is not None


def test_flwr_multiple_for_vars():
    expr = parse_query("for $x in a, $y in b return ($x, $y)")
    assert len(expr.clauses) == 2


def test_flwr_order_by():
    expr = parse_query("for $x in a order by $x/k descending return $x")
    assert expr.order_by[0].descending


def test_if_expression():
    expr = parse_query("if ($a) then 1 else 2")
    assert isinstance(expr, ast.IfExpr)


def test_quantified():
    expr = parse_query("some $x in a satisfies $x = 1")
    assert isinstance(expr, ast.QuantifiedExpr)
    assert expr.quantifier == "some"


def test_element_named_for_is_a_step():
    # "for" not followed by $var parses as a name test.
    expr = parse_query("for/x")
    assert isinstance(expr, ast.PathExpr)
    assert expr.steps[0].test.name == "for"


def test_constructor_simple():
    expr = parse_query("<a>text</a>")
    assert isinstance(expr, ast.ElementConstructor)
    assert expr.tag == "a"
    assert expr.content == ("text",)


def test_constructor_self_closing():
    expr = parse_query("<a/>")
    assert expr.content == ()


def test_constructor_attributes_with_expr():
    expr = parse_query('<a id="x{ $n }y"/>')
    template = expr.attributes[0]
    assert template.name == "id"
    assert template.parts[0] == "x"
    assert isinstance(template.parts[1], ast.VarRef)
    assert template.parts[2] == "y"


def test_constructor_nested_and_embedded():
    expr = parse_query("<a><b>{ $x }</b>{ count($y) }</a>")
    nested = expr.content[0]
    assert isinstance(nested, ast.ElementConstructor)
    assert isinstance(nested.content[0], ast.VarRef)
    assert isinstance(expr.content[1], ast.FuncCall)


def test_constructor_nested_braces():
    expr = parse_query("<a>{ <b>{ 1 }</b> }</a>")
    inner = expr.content[0]
    assert isinstance(inner, ast.ElementConstructor)


def test_constructor_mismatched_tags():
    with pytest.raises(QueryParseError):
        parse_query("<a></b>")


def test_constructor_unterminated():
    with pytest.raises(QueryParseError):
        parse_query("<a><b></b>")


def test_less_than_still_comparison():
    expr = parse_query("$a < 3")
    assert expr.op == "<"


def test_trailing_garbage_rejected():
    with pytest.raises(QueryParseError):
        parse_query("1 1")


def test_unbalanced_paren_rejected():
    with pytest.raises(QueryParseError):
        parse_query("(1")


def test_missing_return_rejected():
    with pytest.raises(QueryParseError):
        parse_query("for $x in a $x")


def test_empty_sequence_literal():
    assert parse_query("()") == ast.SequenceExpr(())


def test_error_has_position():
    try:
        parse_query("a[")
    except QueryParseError as error:
        assert error.position >= 1
    else:  # pragma: no cover
        pytest.fail("expected QueryParseError")


def test_flwr_as_function_argument():
    expr = parse_query("sum(for $x in a return 1)")
    assert isinstance(expr.args[0], ast.FLWRExpr)


def test_if_as_function_argument():
    expr = parse_query("count(if (1) then a else b)")
    assert isinstance(expr.args[0], ast.IfExpr)


def test_flwr_in_sequence():
    expr = parse_query("1, for $x in a return $x, 2")
    assert isinstance(expr, ast.SequenceExpr)
    assert isinstance(expr.exprs[1], ast.FLWRExpr)


def test_for_at_parses():
    expr = parse_query("for $x at $i in a return $i")
    assert expr.clauses[0].position_var == "i"


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(QueryParseError, match="nested deeper than"):
        parse_query("(" * 200 + "1" + ")" * 200)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: "(" * n + "1" + ")" * n,
        lambda n: "a" + "[b" * n + "]" * n,
        lambda n: "count(" * n + "1" + ")" * n,
        lambda n: "<a>" * n + "</a>" * n,
        lambda n: "<a>{" * n + "1" + "}</a>" * n,
        lambda n: "if (" * n + "1" + ") then 1 else 2" * n,
    ],
    ids=["parentheses", "predicates", "calls", "constructors", "enclosed", "if"],
)
def test_nesting_is_refused_at_the_depth_limit_and_not_before(make):
    from repro.query.parser import MAX_DEPTH

    deepest = 0
    for depth in range(1, MAX_DEPTH + 2):
        try:
            parse_query(make(depth))
        except QueryParseError as error:
            assert "nested deeper than" in str(error)
            break
        deepest = depth
    # A constructor with an enclosed expression nests two levels per step.
    assert (MAX_DEPTH - 1) // 2 <= deepest < MAX_DEPTH
    with pytest.raises(QueryParseError, match="nested deeper than"):
        parse_query(make(MAX_DEPTH + 1))


def test_a_sign_chain_parses_without_recursion():
    expr = parse_query("-" * 2000 + "1")
    depth = 0
    while isinstance(expr, ast.UnaryOp):
        expr = expr.operand
        depth += 1
    assert depth == 2000 and expr == ast.Literal(1)
