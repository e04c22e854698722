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

import re
from typing import Callable, NamedTuple, TypeVar

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
_Item = TypeVar("_Item")


class Token(NamedTuple):
    kind: str  # IDENT, STRING, INT, COMMA, LPAREN, RPAREN, EQ, STAR, FOLLOWS, DFOLLOWS, EOF
    value: str
    line: int
    column: int

    @property
    def keyword(self) -> str | None:
        if self.kind == "IDENT" and self.value.upper() in KEYWORDS:
            return self.value.upper()
        return None


# One alternative per token kind, tried in order; ERROR takes any other
# character. \d is what isdecimal() accepts, the digits int() reads. \w is
# what isalnum() accepts plus "_", so it also takes digits like "²": tokenize
# rejects a name whose first character is not a letter or "_". A closing
# quote may not be followed by another, which would make it an escape.
_TOKENS = re.compile(r"""
    (?P<SPACE>[ \t\r\n]+)
  | (?P<STRING>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
  | (?P<INT>\d+)
  | (?P<IDENT>\w+)
  | (?P<FOLLOWS>~>|⇝)
  | (?P<DFOLLOWS>->|→)
  | (?P<COMMA>,)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<EQ>=)
  | (?P<STAR>\*)
  | (?P<ERROR>.)
""", re.VERBOSE | re.DOTALL)
_ARROWS = {"FOLLOWS": "~>", "DFOLLOWS": "->"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKENS.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        token_line, column = line, start - line_start + 1
        if "\n" in value:
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
        if kind == "SPACE":
            continue
        if kind == "ERROR" or kind == "IDENT" and not (value[0].isalpha() or value[0] == "_"):
            if value in ("'", '"'):
                raise ParseError("unterminated string literal", token_line, column)
            raise ParseError(f"unexpected character {value[0]!r}", token_line, column)
        if kind == "STRING":
            value = value[1:-1].replace(value[0] * 2, value[0])
        tokens.append(Token(kind, _ARROWS.get(kind, value), token_line, column))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
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
        # The list ends in EOF, which next() never passes, so any token but
        # EOF has one after it.
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, name: str) -> bool:
        """Whether the next token is `name`: its kind or the keyword it spells."""
        tok = self.tokens[self.pos]
        return tok.kind == name or tok.keyword == name

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

    def expect(self, name: str, *expected: str) -> Token:
        """Consume a token that is `name`; the error lists `expected`, or
        `name` when none is given."""
        if not self.at(name):
            raise self.fail(f"unexpected {self.describe(self.peek())}", expected or (name,))
        return self.next()

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        return f"{tok.kind} {tok.value!r}"

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"unexpected {self.describe(tok)}", (what,))
        if tok.keyword is not None:
            raise self.fail(f"keyword {tok.value!r} cannot be used as {what}", (what,))
        upper = tok.value.upper()
        if upper in UNSUPPORTED_FUNCTIONS and self.peek(1).kind == "LPAREN":
            raise UnsupportedFeature(upper, tok.line, tok.column)
        return self.next().value

    def separated(self, item: Callable[..., _Item], separator: str, *args: str) -> tuple[_Item, ...]:
        """item(*args) (separator item(*args))*."""
        items = [item(*args)]
        while self.at(separator):
            self.next()
            items.append(item(*args))
        return tuple(items)

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

    def infix(self, operand: Callable[[frozenset[str] | None], _Node],
              behaviour_names: frozenset[str] | None, operator: str, cls: type) -> _Node:
        """operand (operator operand)*, grouped to the left into `cls` nodes."""
        node = operand(behaviour_names)
        while self.at(operator):
            tok = self.next()
            node = self.binary(tok, cls, node, operand(behaviour_names))
        return node

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
        self.expect("SELECT")
        projection = self.separated(self.name, "COMMA", "column name")
        self.expect("FROM")
        self.check_subquery()
        source = self.name("source name")
        conditions: tuple[Condition, ...] = ()
        if self.at("WHERE"):
            self.next()
            conditions = self.separated(self.condition, "AND")
        self.expect("EOF", "AND", "end of input")
        return Query(projection, source, conditions)

    def condition(self) -> Condition:
        if self.at("BEHAVIOUR"):
            return self.behaviour_match()
        if self.at("SELECT"):
            tok = self.peek()
            raise UnsupportedFeature("subquery", tok.line, tok.column)
        col = self.name("column name")
        if self.at("EQ"):
            self.next()
            self.check_subquery()
            return self.equality(col, "column name", strict=False)
        self.expect("MATCHES", "=", "MATCHES")
        return SimpleMatch(col, self.pattern(behaviour_names=None))

    def equality(self, col: str, what: str, strict: bool) -> AttrEqAttr | AttrEqConst:
        """The right of `col =`: a name, called `what`, or a constant unless
        `strict` (--strict-grammar inside a behaviour)."""
        tok = self.peek()
        if tok.kind in ("STRING", "INT"):
            if strict:
                raise self.fail("constants are not allowed in behaviour conditions under --strict-grammar",
                                (what,))
            if tok.kind == "INT":
                return AttrEqConst(col, self.integer())
            self.next()
            return AttrEqConst(col, tok.value)
        if tok.kind == "IDENT" and tok.keyword is None:
            return AttrEqAttr(col, self.name(what))
        raise self.fail(f"unexpected {self.describe(tok)}", (what, "string", "integer"))

    def behaviour_match(self) -> BehaviourMatch:
        self.expect("BEHAVIOUR")
        defs = self.separated(self.behaviour_def, "COMMA")
        seen: set[str] = set()
        for d in defs:
            if d.name in seen:
                raise self.fail(f"duplicate behaviour name {d.name!r}")
            seen.add(d.name)
        self.expect("MATCHES")
        return BehaviourMatch(defs, self.pattern(behaviour_names=frozenset(seen)))

    def behaviour_def(self) -> BehaviourDef:
        conjuncts = self.separated(self.behaviour_conjunct, "AND")
        self.expect("AS")
        return BehaviourDef(self.name("behaviour name"), conjuncts)

    def behaviour_conjunct(self) -> AttrEqAttr | AttrEqConst:
        col = self.name("attribute name")
        self.expect("EQ", "=")
        return self.equality(col, "attribute name", self.strict_grammar)

    # -- patterns ------------------------------------------------------------
    # behaviour_names is None inside a plain MATCHES (identifiers must be
    # quoted) and the set of bound names inside a BEHAVIOUR match.

    def pattern(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        return self.infix(self.pattern_seq, behaviour_names, "FOLLOWS", Follows)

    def pattern_seq(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        return self.infix(self.pattern_unit, behaviour_names, "DFOLLOWS", DirectlyFollows)

    def pattern_unit(self, behaviour_names: frozenset[str] | None) -> PatternFormula:
        node = self.pattern_atom(behaviour_names)
        while self.at("STAR") or self.at("END"):
            tok = self.next()
            node = self.nested(tok, (Star if tok.kind == "STAR" else End)(node), self.height(node) + 1)
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
        return self.infix(self.identifier_term, behaviour_names, "OR", OrExpr)

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
    parser.expect("EOF", "end of input")
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
