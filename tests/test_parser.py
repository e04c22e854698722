import random

import pytest

from sccq.ast import (
    AnyEvent,
    AttrEqAttr,
    AttrEqConst,
    BehaviourDef,
    BehaviourMatch,
    BehaviourRef,
    DirectlyFollows,
    End,
    Follows,
    Identifier,
    Literal,
    NotExpr,
    OrExpr,
    Query,
    SimpleMatch,
    Star,
    Start,
)
from sccq.errors import ParseError, UnsupportedFeature
from sccq.gen import random_query_ast
from sccq.parser import (
    MAX_PATTERN_NESTING,
    parse_pattern,
    parse_query,
    pretty_print,
    pretty_print_pattern,
    tokenize,
)


def lit(v):
    return Identifier(Literal(v))


def test_pattern_basic_shapes():
    assert parse_pattern("'a'") == lit("a")
    assert parse_pattern("ANY") == AnyEvent()
    assert parse_pattern("'a' ~> 'b'") == Follows(lit("a"), lit("b"))
    assert parse_pattern("'a' -> 'b'") == DirectlyFollows(lit("a"), lit("b"))
    assert parse_pattern("'a'*") == Star(lit("a"))
    assert parse_pattern("'a' END") == End(lit("a"))
    assert parse_pattern("START ('a')") == Start(lit("a"))


def test_pattern_fixture_trees():
    assert parse_pattern("START ('e1' -> 'e2')") == Start(
        DirectlyFollows(lit("e1"), lit("e2"))
    )
    assert parse_pattern("'e1' -> ('e2' ~> 'e4')*") == DirectlyFollows(
        lit("e1"), Star(Follows(lit("e2"), lit("e4")))
    )


def test_precedence_and_associativity():
    # * binds tighter than ->, which binds tighter than ~>
    assert parse_pattern("'a' ~> 'b' -> 'c'*") == Follows(
        lit("a"), DirectlyFollows(lit("b"), Star(lit("c")))
    )
    assert parse_pattern("'a' ~> 'b' ~> 'c'") == Follows(Follows(lit("a"), lit("b")), lit("c"))
    assert parse_pattern("'a' -> 'b' -> 'c'") == DirectlyFollows(
        DirectlyFollows(lit("a"), lit("b")), lit("c")
    )
    # END is a tight postfix, like *
    assert parse_pattern("'a' ~> 'b' END") == Follows(lit("a"), End(lit("b")))
    assert parse_pattern("'a'* END") == End(Star(lit("a")))
    assert parse_pattern("('a' ~> 'b') END") == End(Follows(lit("a"), lit("b")))


def test_unicode_arrow_aliases():
    assert parse_pattern("'a' ⇝ 'b'") == parse_pattern("'a' ~> 'b'")
    assert parse_pattern("'a' → 'b'") == parse_pattern("'a' -> 'b'")


def test_string_literals_both_quote_styles():
    assert parse_pattern('"a b"') == lit("a b")
    assert parse_pattern("'it''s'") == lit("it's")
    assert parse_pattern('"say ""hi"""') == lit('say "hi"')
    with pytest.raises(ParseError, match="unterminated"):
        parse_pattern("'oops")


def test_positions_after_a_string_that_spans_lines():
    tokens = [(t.kind, t.value, t.line, t.column) for t in tokenize("a = 'xx\nyy' b")]
    assert tokens == [
        ("IDENT", "a", 1, 1), ("EQ", "=", 1, 3), ("STRING", "xx\nyy", 1, 5),
        ("IDENT", "b", 2, 5), ("EOF", "", 2, 6),
    ]
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT a FROM eventlog WHERE a = 'xx\nyy' ?")
    assert (exc.value.line, exc.value.column) == (2, 5)
    assert str(exc.value) == "unexpected character '?' at line 2, column 5"


@pytest.mark.parametrize("text, expected", [
    ("\u00b2", "unexpected character '\u00b2' at line 1, column 1"),  # a digit, but not decimal
    ("x\u00b2", [("IDENT", "x\u00b2")]),
    ("_1 12ab", [("IDENT", "_1"), ("INT", "12"), ("IDENT", "ab")]),
    ("a \u00a0", "unexpected character '\\xa0' at line 1, column 3"),  # not in the whitespace set
    ("'ab''", "unterminated string literal at line 1, column 1"),  # the last quote pair is an escape
    ("x \"ab", "unterminated string literal at line 1, column 3"),
    ('""""', [("STRING", '"')]),
    ("'a''b' \"\"", [("STRING", "a'b"), ("STRING", "")]),
    ("\u21dd \u2192 ~> ->", [("FOLLOWS", "~>"), ("DFOLLOWS", "->"), ("FOLLOWS", "~>"), ("DFOLLOWS", "->")]),
    ("~ >", "unexpected character '~' at line 1, column 1"),
])
def test_token_table_edges(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert str(exc.value) == expected
    else:
        assert [(t.kind, t.value) for t in tokenize(text)] == [*expected, ("EOF", "")]


def test_keywords_case_insensitive():
    q = parse_query("select eid from eventlog where event_name matches (any)")
    assert q == Query(("eid",), "eventlog", (SimpleMatch("event_name", AnyEvent()),))


def test_identifier_or_not():
    assert parse_pattern("'a' OR 'b' OR 'c'") == Identifier(
        OrExpr(OrExpr(Literal("a"), Literal("b")), Literal("c"))
    )
    assert parse_pattern("NOT ('a')") == Identifier(NotExpr(Literal("a")))
    assert parse_pattern("NOT ('a' OR 'b')") == Identifier(NotExpr(OrExpr(Literal("a"), Literal("b"))))
    assert parse_pattern("NOT (NOT ('a'))") == Identifier(NotExpr(NotExpr(Literal("a"))))
    # explicit grouping inside an identifier expression
    assert parse_pattern("'a' OR ('b' OR 'c')") == Identifier(
        OrExpr(Literal("a"), OrExpr(Literal("b"), Literal("c")))
    )


def test_bare_identifier_rejected_in_simple_pattern():
    with pytest.raises(ParseError, match="must be quoted"):
        parse_pattern("a ~> 'b'")


def test_start_requires_parentheses():
    with pytest.raises(ParseError):
        parse_pattern("START 'a'")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="end of input"):
        parse_pattern("'a' 'b'")


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_pattern("'a' ~>")
    err = exc.value
    assert err.line == 1 and err.column == 7
    assert "expected one of" in str(err)


def test_query_shapes():
    q = parse_query("SELECT eid, cid FROM eventlog")
    assert q == Query(("eid", "cid"), "eventlog", ())
    q = parse_query("SELECT ts FROM eventlog WHERE ts = 40 AND eid = cid AND a = 'x'")
    assert q.conditions == (
        AttrEqConst("ts", 40),
        AttrEqAttr("eid", "cid"),
        AttrEqConst("a", "x"),
    )


def test_query_matches_condition():
    q = parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES ('a' ~> 'b')")
    assert q.conditions == (SimpleMatch("event_name", Follows(lit("a"), lit("b"))),)


def test_behaviour_match():
    q = parse_query(
        "SELECT cid FROM eventlog WHERE "
        "BEHAVIOUR event_name = 'x' AND resource = resource AS p, "
        "event_name = 'y' AS q "
        "MATCHES (p ~> q OR p)"
    )
    cond = q.conditions[0]
    assert cond == BehaviourMatch(
        (
            BehaviourDef("p", (AttrEqConst("event_name", "x"), AttrEqAttr("resource", "resource"))),
            BehaviourDef("q", (AttrEqConst("event_name", "y"),)),
        ),
        Follows(Identifier(BehaviourRef("p")), Identifier(OrExpr(BehaviourRef("q"), BehaviourRef("p")))),
    )


def test_behaviour_name_errors():
    with pytest.raises(ParseError, match="duplicate behaviour name"):
        parse_query("SELECT cid FROM l WHERE BEHAVIOUR a = b AS p, c = d AS p MATCHES (p)")
    with pytest.raises(ParseError, match="not defined"):
        parse_query("SELECT cid FROM l WHERE BEHAVIOUR a = b AS p MATCHES (q)")
    with pytest.raises(ParseError, match="string literals are not allowed"):
        parse_query("SELECT cid FROM l WHERE BEHAVIOUR a = b AS p MATCHES ('x')")


def test_strict_grammar_rejects_behaviour_constants():
    text = "SELECT cid FROM l WHERE BEHAVIOUR a = 'x' AS p MATCHES (p)"
    parse_query(text)  # lax default accepts it
    with pytest.raises(ParseError, match="strict-grammar"):
        parse_query(text, strict_grammar=True)


def test_unsupported_features():
    with pytest.raises(UnsupportedFeature, match="FIRST"):
        parse_query("SELECT FIRST(ts) FROM eventlog")
    with pytest.raises(UnsupportedFeature, match="AVG"):
        parse_query("SELECT AVG(ts) FROM eventlog")
    with pytest.raises(UnsupportedFeature, match="subquery"):
        parse_query("SELECT eid FROM (SELECT eid FROM eventlog)")
    with pytest.raises(UnsupportedFeature, match="subquery"):
        parse_query("SELECT eid FROM l WHERE cid = (SELECT cid FROM l)")
    # A condition that starts with SELECT is a subquery too, reported where it starts.
    for text, line, column in (
        ("SELECT eid FROM l WHERE SELECT cid FROM l", 1, 25),
        ("SELECT eid FROM l WHERE cid = 'x'\n  AND SELECT cid FROM l", 2, 7),
    ):
        with pytest.raises(UnsupportedFeature) as exc:
            parse_query(text)
        assert (exc.value.construct, exc.value.line, exc.value.column) == ("subquery", line, column)
    # FIRST without a call is an ordinary column name
    assert parse_query("SELECT first FROM l").projection == ("first",)


def test_keyword_cannot_be_name():
    with pytest.raises(ParseError, match="keyword"):
        parse_query("SELECT where FROM l")


def test_pretty_print_pattern_canonical():
    cases = [
        ("'a'~>'b'->'c'*", "'a' ~> 'b' -> 'c'*"),
        ("START (('a' -> 'b'))", "START ('a' -> 'b')"),
        ('"it\'s"', "'it''s'"),
        ("'a' ⇝ ('b' → 'c')", "'a' ~> 'b' -> 'c'"),
        ("('a' ~> 'b') -> 'c'", "('a' ~> 'b') -> 'c'"),
        ("('a' OR 'b') ~> ANY", "'a' OR 'b' ~> ANY"),
    ]
    for source, expected in cases:
        assert pretty_print_pattern(parse_pattern(source)) == expected


def test_pretty_print_query_canonical():
    text = 'select eid , cid from eventlog where a = "x" and b matches (any*)'
    assert pretty_print(parse_query(text)) == (
        "SELECT eid, cid FROM eventlog WHERE a = 'x' AND b MATCHES (ANY*)"
    )


@pytest.mark.parametrize("source", [
    "'a' OR ('b' OR 'c')",
    "NOT ('a' OR 'b') ~> 'c'",
    "START ('a' ~> 'b' END)",
    "(('a' -> 'b')* ~> 'c') END",
    "ANY* -> NOT (NOT ('x'))",
])
def test_pattern_round_trip_handwritten(source):
    tree = parse_pattern(source)
    assert parse_pattern(pretty_print_pattern(tree)) == tree


def test_query_round_trip_seeded():
    rng = random.Random(2024)
    for _ in range(100):
        q = random_query_ast(rng)
        assert parse_query(pretty_print(q)) == q


@pytest.mark.parametrize(
    "level", ["({})", "START ({})", "NOT ({})", "{}*", "{} END", "{} OR 'b'", "{} -> 'b'", "{} ~> 'b'"]
)
def test_every_construct_is_one_nesting_level(level):
    def nest(depth):
        text = "'a'"
        for _ in range(depth):
            text = level.format(text)
        return text

    parse_pattern(nest(MAX_PATTERN_NESTING))
    with pytest.raises(ParseError, match="nested more than"):
        parse_pattern(nest(MAX_PATTERN_NESTING + 1))
