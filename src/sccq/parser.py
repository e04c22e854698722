"""Query and pattern parser plus the canonical pretty printer.

Grammar, in parsing order (binary operators are left-associative; ``*`` and
END bind tightest, then ``->``, then ``~>``):

    query      := SELECT proj ("," proj)* FROM name [WHERE cond (AND cond)*]
    cond       := col "=" col | col "=" const | col MATCHES pattern
                | BEHAVIOUR bdef ("," bdef)* MATCHES pattern
    bdef       := conj (AND conj)* AS name
    conj       := col "=" col | col "=" const        (const form is an
                                                      extension; --strict-grammar
                                                      rejects it)
    pattern    := seq ("~>" seq)*
    seq        := unit ("->" unit)*
    unit       := atom ("*" | END)*
    atom       := idexpr | ANY | START "(" pattern ")" | "(" pattern ")"
    idexpr     := idterm (OR idterm)*
    idterm     := string | name | NOT "(" idexpr ")" | "(" idexpr ")"

Inside a plain MATCHES the identifiers must be quoted strings; inside a
BEHAVIOUR match they must be bound behaviour names. A pattern nests at most
MAX_PATTERN_NESTING levels deep, counting every parenthesised group, START,
NOT and operator. ``~>``/``->`` have the
arrow aliases U+21DD/U+2192 on input. Keywords are case-insensitive; string
literals take either quote character with a doubled quote as escape. The
pretty printer emits the canonical form (upper-case keywords, single quotes,
ASCII arrows) and parse of that form reproduces the tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .ast import (
    AnyEvent,
    AttrEqAttr,
    AttrEqConst,
    BehaviourDef,
    BehaviourMatch,
    BehaviourRef,
    Condition,
    DirectlyFollows,
    End,
    Follows,
    Identifier,
    IdentifierExpr,
    Literal,
    NotExpr,
    OrExpr,
    PatternFormula,
    Query,
    SimpleMatch,
    Star,
    Start,
)
from .errors import ParseError, UnsupportedFeature

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "MATCHES", "BEHAVIOUR", "AS",
    "OR", "NOT", "ANY", "START", "END",
}
# Recognised so they can be rejected with a pointed error instead of a
# generic syntax failure.
UNSUPPORTED_FUNCTIONS = {"FIRST", "LAST", "AVG"}
# Deepest pattern accepted. Every parenthesised group, START, NOT and
# operator node is one level; the matcher, the oracle and the Datalog
# translation recurse once or twice per level.
MAX_PATTERN_NESTING = 100

_Node = TypeVar("_Node", PatternFormula, IdentifierExpr)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, STRING, INT, COMMA, LPAREN, RPAREN, EQ, STAR, FOLLOWS, DFOLLOWS, EOF
    value: str
    line: int
    column: int

    @property
    def keyword(self) -> str | None:
        if self.kind == "IDENT" and self.value.upper() in KEYWORDS:
            return self.value.upper()
        return None


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", start_line, start_col)
                if text[j] == quote:
                    if j + 1 < n and text[j + 1] == quote:
                        buf.append(quote)
                        j += 2
                        continue
                    j += 1
                    break
                if text[j] == "\n":
                    line += 1
                buf.append(text[j])
                j += 1
            tokens.append(Token("STRING", "".join(buf), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():  # the digits int() reads; isdigit() also takes '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if text.startswith("~>", i):
            tokens.append(Token("FOLLOWS", "~>", start_line, start_col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            tokens.append(Token("DFOLLOWS", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "⇝":  # squiggly rightwards arrow
            tokens.append(Token("FOLLOWS", "~>", start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "→":  # rightwards arrow
            tokens.append(Token("DFOLLOWS", "->", start_line, start_col))
            i += 1
            col += 1
            continue
        simple = {",": "COMMA", "(": "LPAREN", ")": "RPAREN", "=": "EQ", "*": "STAR"}
        if ch in simple:
            tokens.append(Token(simple[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], strict_grammar: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.strict_grammar = strict_grammar
        self.open_groups = 0
        self.heights: dict[int, int] = {}  # id(node) -> its nesting levels; leaves are 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column, expected)

    def integer(self) -> int:
        try:
            value = int(self.peek().value)
        except ValueError:  # longer than the interpreter converts
            raise self.fail("integer constant has too many digits") from None
        self.next()
        return value

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"unexpected {self.describe(tok)}", (what or kind,))
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.keyword != word:
            raise self.fail(f"unexpected {self.describe(tok)}", (word,))
        return self.next()

    def at_keyword(self, *words: str) -> bool:
        return self.peek().keyword in words

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        return f"{tok.kind} {tok.value!r}"

    def name_token(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"unexpected {self.describe(tok)}", (what,))
        if tok.keyword is not None:
            raise self.fail(f"keyword {tok.value!r} cannot be used as {what}", (what,))
        upper = tok.value.upper()
        if upper in UNSUPPORTED_FUNCTIONS and self.peek(1).kind == "LPAREN":
            raise UnsupportedFeature(upper, tok.line, tok.column)
        return self.next()

    # -- pattern nesting ------------------------------------------------------

    def height(self, node: PatternFormula | IdentifierExpr) -> int:
        return self.heights.get(id(node), 0)

    def check_nesting(self, tok: Token, height: int) -> None:
        if self.open_groups + height > MAX_PATTERN_NESTING:
            raise ParseError(f"pattern nested more than {MAX_PATTERN_NESTING} levels deep",
                             tok.line, tok.column)

    def nested(self, tok: Token, node: _Node, height: int) -> _Node:
        """Record that `node`, written at `tok`, is `height` levels deep; fail
        if it and the groups around it pass the bound."""
        self.check_nesting(tok, height)
        self.heights[id(node)] = height
        return node

    def binary(self, tok: Token, cls: type, left: _Node, right: _Node) -> _Node:
        return self.nested(tok, cls(left, right), max(self.height(left), self.height(right)) + 1)

    def group(
        self, tok: Token, parse: Callable[[frozenset[str] | None], _Node],
        behaviour_names: frozenset[str] | None,
    ) -> tuple[_Node, int]:
        """Parse "(" parse(behaviour_names) ")" one level below `tok`; returns
        the inner node and the height of the group."""
        self.open_groups += 1
        self.check_nesting(tok, 0)
        self.expect("LPAREN", "(")
        inner = parse(behaviour_names)
        self.expect("RPAREN", ")")
        self.open_groups -= 1
        return inner, self.height(inner) + 1

    def check_subquery(self) -> None:
        if self.peek().kind == "LPAREN" and self.peek(1).keyword == "SELECT":
            tok = self.peek()
            raise UnsupportedFeature("subquery", tok.line, tok.column)

    # -- query -------------------------------------------------------------

    def query(self) -> Query:
        self.expect_keyword("SELECT")
        projection = [self.name_token("column name").value]
        while self.peek().kind == "COMMA":
            self.next()
            projection.append(self.name_token("column name").value)
        self.expect_keyword("FROM")
        self.check_subquery()
        source = self.name_token("source name").value
        conditions: list[Condition] = []
        if self.at_keyword("WHERE"):
            self.next()
            conditions.append(self.condition())
            while self.at_keyword("AND"):
                self.next()
                conditions.append(self.condition())
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.fail(f"unexpected {self.describe(tok)}", ("AND", "end of input"))
        return Query(tuple(projection), source, tuple(conditions))

    def condition(self) -> Condition:
        if self.at_keyword("BEHAVIOUR"):
            return self.behaviour_match()
        if self.peek().keyword == "SELECT":
            tok = self.peek()
            raise UnsupportedFeature("subquery", tok.line, tok.column)
        col = self.name_token("column name").value
        tok = self.peek()
        if tok.kind == "EQ":
            self.next()
            return self.equality_rhs(col)
        if tok.keyword == "MATCHES":
            self.next()
            pattern = self.pattern(behaviour_names=None)
            return SimpleMatch(col, pattern)
        raise self.fail(f"unexpected {self.describe(tok)}", ("=", "MATCHES"))

    def equality_rhs(self, col: str) -> Condition:
        self.check_subquery()
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return AttrEqConst(col, tok.value)
        if tok.kind == "INT":
            return AttrEqConst(col, self.integer())
        if tok.kind == "IDENT" and tok.keyword is None:
            return AttrEqAttr(col, self.name_token("column name").value)
        raise self.fail(f"unexpected {self.describe(tok)}", ("column name", "string", "integer"))

    def behaviour_match(self) -> BehaviourMatch:
        self.expect_keyword("BEHAVIOUR")
        defs = [self.behaviour_def()]
        while self.peek().kind == "COMMA":
            self.next()
            defs.append(self.behaviour_def())
        seen: set[str] = set()
        for d in defs:
            if d.name in seen:
                raise self.fail(f"duplicate behaviour name {d.name!r}")
            seen.add(d.name)
        self.expect_keyword("MATCHES")
        pattern = self.pattern(behaviour_names=frozenset(seen))
        return BehaviourMatch(tuple(defs), pattern)

    def behaviour_def(self) -> BehaviourDef:
        conjuncts = [self.behaviour_conjunct()]
        while self.at_keyword("AND"):
            self.next()
            conjuncts.append(self.behaviour_conjunct())
        self.expect_keyword("AS")
        name = self.name_token("behaviour name").value
        return BehaviourDef(name, tuple(conjuncts))

    def behaviour_conjunct(self) -> AttrEqAttr | AttrEqConst:
        col = self.name_token("attribute name").value
        self.expect("EQ", "=")
        tok = self.peek()
        if tok.kind in ("STRING", "INT"):
            if self.strict_grammar:
                raise self.fail("constants are not allowed in behaviour conditions under --strict-grammar",
                                ("attribute name",))
            if tok.kind == "INT":
                return AttrEqConst(col, self.integer())
            self.next()
            return AttrEqConst(col, tok.value)
        if tok.kind == "IDENT" and tok.keyword is None:
            return AttrEqAttr(col, self.name_token("attribute name").value)
        raise self.fail(f"unexpected {self.describe(tok)}", ("attribute name", "string", "integer"))

    # -- patterns ------------------------------------------------------------
    # behaviour_names is None inside a plain MATCHES (identifiers must be
    # quoted) and the set of bound names inside a BEHAVIOUR match.

    def pattern(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        node = self.pattern_seq(behaviour_names)
        while self.peek().kind == "FOLLOWS":
            tok = self.next()
            right = self.pattern_seq(behaviour_names)
            node = self.binary(tok, Follows, node, right)
        return node

    def pattern_seq(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        node = self.pattern_unit(behaviour_names)
        while self.peek().kind == "DFOLLOWS":
            tok = self.next()
            right = self.pattern_unit(behaviour_names)
            node = self.binary(tok, DirectlyFollows, node, right)
        return node

    def pattern_unit(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        node = self.pattern_atom(behaviour_names)
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.next()
                node = self.nested(tok, Star(node), self.height(node) + 1)
            elif tok.keyword == "END":
                self.next()
                node = self.nested(tok, End(node), self.height(node) + 1)
            else:
                return node

    def pattern_atom(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        tok = self.peek()
        if tok.keyword == "ANY":
            self.next()
            return AnyEvent()
        if tok.keyword == "START":
            self.next()
            inner, height = self.group(tok, self.pattern, behaviour_names)
            return self.nested(tok, Start(inner), height)
        if tok.kind == "LPAREN":
            return self.nested(tok, *self.group(tok, self.pattern, behaviour_names))
        if tok.kind == "STRING" or tok.keyword == "NOT" or tok.kind == "IDENT":
            expr = self.identifier_expr(behaviour_names)
            return self.nested(tok, Identifier(expr), self.height(expr))
        raise self.fail(f"unexpected {self.describe(tok)}",
                        ("string", "ANY", "START", "NOT", "("))

    def identifier_expr(self, behaviour_names: frozenset[str] | None) -> IdentifierExpr:
        node = self.identifier_term(behaviour_names)
        while self.at_keyword("OR"):
            tok = self.next()
            right = self.identifier_term(behaviour_names)
            node = self.binary(tok, OrExpr, node, right)
        return node

    def identifier_term(self, behaviour_names: frozenset[str] | None) -> IdentifierExpr:
        tok = self.peek()
        if tok.kind == "STRING":
            if behaviour_names is not None:
                raise self.fail("string literals are not allowed in a BEHAVIOUR pattern; "
                                "use a behaviour name", ("behaviour name",))
            self.next()
            return Literal(tok.value)
        if tok.keyword == "NOT":
            self.next()
            inner, height = self.group(tok, self.identifier_expr, behaviour_names)
            return self.nested(tok, NotExpr(inner), height)
        if tok.kind == "LPAREN":
            return self.nested(tok, *self.group(tok, self.identifier_expr, behaviour_names))
        if tok.kind == "IDENT" and tok.keyword is None:
            if behaviour_names is None:
                raise self.fail(f"bare identifier {tok.value!r}; attribute values must be quoted",
                                ("string",))
            if tok.value not in behaviour_names:
                raise self.fail(f"behaviour name {tok.value!r} is not defined",
                                tuple(sorted(behaviour_names)))
            self.next()
            return BehaviourRef(tok.value)
        raise self.fail(f"unexpected {self.describe(tok)}", ("string", "NOT", "("))


def parse_query(text: str, *, strict_grammar: bool = False) -> Query:
    """Parse query text into a Query AST. Raises ParseError on bad syntax and
    UnsupportedFeature on recognised constructs outside the fragment."""
    return _Parser(tokenize(text), strict_grammar=strict_grammar).query()


def parse_pattern(text: str) -> PatternFormula:
    """Parse a standalone pattern (plain-MATCHES form: identifiers quoted)."""
    parser = _Parser(tokenize(text))
    node = parser.pattern(behaviour_names=None)
    tok = parser.peek()
    if tok.kind != "EOF":
        raise parser.fail(f"unexpected {parser.describe(tok)}", ("end of input",))
    return node


# --- pretty printing --------------------------------------------------------

def quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _identifier_text(expr: IdentifierExpr, nested: bool = False) -> str:
    if isinstance(expr, Literal):
        return quote_string(expr.value)
    if isinstance(expr, BehaviourRef):
        return expr.name
    if isinstance(expr, NotExpr):
        return f"NOT ({_identifier_text(expr.inner)})"
    if isinstance(expr, OrExpr):
        left = _identifier_text(expr.left, nested=False)
        right = _identifier_text(expr.right, nested=True)
        text = f"{left} OR {right}"
        # A right-nested OR must keep its grouping to survive reparsing.
        return f"({text})" if nested else text
    raise TypeError(f"not an identifier expression: {expr!r}")


# Binding strength: Follows=1, DirectlyFollows=2, postfix (*/END)=3, atoms=4.
def _pattern_text(node: PatternFormula, min_level: int) -> str:
    if isinstance(node, Follows):
        text, level = f"{_pattern_text(node.left, 1)} ~> {_pattern_text(node.right, 2)}", 1
    elif isinstance(node, DirectlyFollows):
        text, level = f"{_pattern_text(node.left, 2)} -> {_pattern_text(node.right, 3)}", 2
    elif isinstance(node, Star):
        text, level = f"{_pattern_text(node.inner, 3)}*", 3
    elif isinstance(node, End):
        text, level = f"{_pattern_text(node.inner, 3)} END", 3
    elif isinstance(node, Start):
        text, level = f"START ({_pattern_text(node.inner, 0)})", 4
    elif isinstance(node, AnyEvent):
        text, level = "ANY", 4
    elif isinstance(node, Identifier):
        text = _identifier_text(node.expr)
        level = 1 if isinstance(node.expr, OrExpr) else 4
    else:
        raise TypeError(f"not a pattern formula: {node!r}")
    return f"({text})" if level < min_level else text


def pretty_print_pattern(node: PatternFormula) -> str:
    """Canonical text for a pattern; parse_pattern of it reproduces the tree."""
    return _pattern_text(node, 0)


def const_text(value: str | int) -> str:
    return str(value) if isinstance(value, int) else quote_string(value)


def behaviour_defs_text(defs: tuple[BehaviourDef, ...]) -> str:
    return ", ".join(
        " AND ".join(_condition_text(c) for c in d.conjuncts) + f" AS {d.name}" for d in defs
    )


def _condition_text(cond: Condition) -> str:
    if isinstance(cond, AttrEqAttr):
        return f"{cond.left} = {cond.right}"
    if isinstance(cond, AttrEqConst):
        return f"{cond.attr} = {const_text(cond.value)}"
    if isinstance(cond, SimpleMatch):
        return f"{cond.attribute} MATCHES ({pretty_print_pattern(cond.pattern)})"
    if isinstance(cond, BehaviourMatch):
        defs = behaviour_defs_text(cond.behaviours)
        return f"BEHAVIOUR {defs} MATCHES ({pretty_print_pattern(cond.pattern)})"
    raise TypeError(f"not a condition: {cond!r}")


def pretty_print(query: Query) -> str:
    """Canonical text for a query; parse_query of it reproduces the AST."""
    text = f"SELECT {', '.join(query.projection)} FROM {query.source}"
    if query.conditions:
        text += " WHERE " + " AND ".join(_condition_text(c) for c in query.conditions)
    return text
