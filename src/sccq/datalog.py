"""Datalog back end: fact extraction, query translation, evaluation.

The extensional database holds one ``event(C,E,T)`` fact per event, one
``attr_<name>(C,E,V)`` fact per attribute value, where a null value is the
constant ``null``, and the one fact ``null(null)``. Per case it holds one
``next(C,T1,T2)`` fact per pair of consecutive events, and one
``first(C,T)`` and one ``last(C,T)`` fact. A pattern translates to one
intensional predicate per subformula other than START and END, a whole
identifier expression being one, and per set of endpoints that its reader
reads: ``output`` reads the case alone, ``~>`` and ``->`` the end of their
left operand and the start of their right one; a single event has one
timestamp column for both. START and END are anchors: the single event or
star read at both ends that owns the endpoint joins ``first`` or ``last``.
The value of attribute a at an event is always ``V<i>``, i being a's schema
position, so rule bodies over one event compose: only a conjunction's part
of several bodies gets a predicate. Each rule is normalized: the terms that
its body equates, through ``=`` and two values of one attribute of one
event, are one term, so no rule holds ``=``, reads an attribute of an event
twice or lists an item twice; and none that can never hold is emitted, so a
subformula may be empty, and so is every operator over it. A predicate is
its definition, so a query derives each relation once; only a star read at
both ends recurses. A query adds one ``output`` rule: the base body, with
the body of the behaviour conjunct that each row filter on attributes
equals, and the root atom of each pattern that is not a star (a star holds
on every case). A query that can never match has no rule.

A rule body is a tuple of atoms. ``Atom("<", (T1, T2))`` and
``Atom("=", (a, b))`` are built-in, of two terms and never negated; every
other predicate names a relation, so ``>`` is one that no rule derives.

Every negated atom is an EDB atom, so a translated program is semi-positive
by construction: START and END join ``first`` and ``last``, a failed
conjunction holds where one conjunct fails (De Morgan), and an equality
between two attributes excludes ``null``. ``evaluate`` audits safety,
the shape of built-ins and semi-positivity, then evaluates the strongly
connected components of the predicate graph in dependency order: a
component that does not read itself runs once, a recursive one by
semi-naive iteration on its own new tuples. Each rule runs as a pipeline of
hash-indexed joins and semi-joins. The same audit is exposed for static
scans.

Constants are the log's values as they are: a str case id, event id or
attribute value, an int timestamp, and None for null, printed ``null``.
Each variable stays in columns of one sort (C case ids, E event ids, T, Ts
and Te timestamps, V<i> attribute values), so no join compares values of
two sorts. A row filter that compares two sorts never holds, and its query
translates to no rule: an equality between two column kinds, such as
``eid = cid``, or of ``ts`` with a quoted value, such as ``ts = 'x'``.
Timestamps alone are ints, so ``<`` applies to them alone.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import count, filterfalse
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Union

from .ast import (
    AnyEvent,
    AttrEqAttr,
    AttrEqConst,
    BehaviourRef,
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
    Star,
    Start,
    matches_empty,
)
from .engine import ColumnRef, Plan, compile_plan, execute, row_columns
from .errors import MalformedCsv, StratificationViolation, UnsafeRule
from .eventlog import EventLog, event_sets
from .matcher import CompiledPattern

Const = Union[int, str, None]  # int = timestamp; str = id or attribute value; None = null


class Var(NamedTuple):
    name: str


Term = Union[Var, Const]


class Atom(NamedTuple):
    pred: str
    args: tuple[Term, ...]
    negated: bool = False


class Rule(NamedTuple):
    head: Atom
    body: tuple[Atom, ...]


class DatalogProgram(NamedTuple):
    rules: tuple[Rule, ...]
    edb_predicates: frozenset[str]


FactSet = dict[str, set[tuple[Const, ...]]]

OUTPUT_PRED = "output"
_BUILTINS = frozenset({"<", "="})  # no relation is named by either

_C, _E, _T = Var("C"), Var("E"), Var("T")
_TS, _TE, _TS2, _TE2 = Var("Ts"), Var("Te"), Var("Ts2"), Var("Te2")  # segment endpoints
_EVENT = Atom("event", (_C, _E, _T))  # one event of the log, at T
_BOTH = frozenset({"start", "end"})  # the endpoints of a segment

NULL: Const = None  # the value of every null attribute


def attribute_predicate(name: str) -> str:
    """Stable EDB predicate name for a schema attribute."""
    return "attr_" + re.sub(r"[^0-9A-Za-z_]", "_", name)


def edb_predicates(schema: tuple[str, ...]) -> frozenset[str]:
    """The EDB predicates of a log with this schema. Two attribute names that
    map to one predicate are an error."""
    attrs = sorted(attribute_predicate(a) for a in schema)
    if len(set(attrs)) != len(attrs):
        raise MalformedCsv(f"attribute names collide as predicates: {attrs}")
    return frozenset({"event", "next", "first", "last", "null", *attrs})


def facts_from_log(log: EventLog) -> FactSet:
    """Extract the EDB: event/3, attr_<name>/3 per value (null included) and
    null/1, then per case next/3 per pair of consecutive events, first/2 and
    last/2."""
    facts: FactSet = {pred: set() for pred in edb_predicates(log.schema)}
    facts["null"].add((NULL,))
    preds = {name: attribute_predicate(name) for name in log.schema}
    for ev in log.events:
        c, e = ev.cid, ev.eid
        facts["event"].add((c, e, ev.ts))
        for name, value in ev.attrs:
            facts[preds[name]].add((c, e, value))
    for es in event_sets(log):
        c = es.cid
        ts = es.timestamps
        facts["next"].update((c, t1, t2) for t1, t2 in zip(ts, ts[1:]))
        facts["first"].add((c, ts[0]))
        facts["last"].add((c, ts[-1]))
    return facts


def _attr_atom(attr: str, value: Term, negated: bool = False) -> Atom:
    return Atom(attribute_predicate(attr), (_C, _E, value), negated)


def _body(items: Iterable[Atom]) -> tuple[Atom, ...]:
    """A rule body that lists each item once, in the order first given."""
    return tuple(dict.fromkeys(items))


def _normalize(head: Atom, body: tuple[Atom, ...], edb: Container[str], derived: Container[str]) -> Rule | str:
    """The rule head :- body with each value named by one term, or why its
    body can never hold: it holds null or !null of a constant that fails it,
    an atom beside its negation, or a read of a derived predicate with no
    rule, `derived` holding those with one; or it equates two constants. The
    terms that it equates, through = and through the values of two
    attr_a(C,E,·) atoms of one event (attr_a is a function of (C, E)), become
    one term: their constant, else their shortest variable, first by name,
    so a value is V<i> of the attribute first in the schema. No = is left,
    and a null or !null of a constant that holds is dropped."""
    pairs: list[tuple[Term, ...]] = []  # the pairs of terms equated
    values: dict[tuple[str, Term, Term], Term] = {}  # an attribute's first value at an event
    items: list[Atom] = []  # the body without = and decided nulls
    for i in body:
        if i.pred in _BUILTINS:
            if i.pred == "=" and len(i.args) == 2 and not i.negated:  # any other is the audit's unsafe finding
                pairs.append(i.args)
                continue
        elif i.pred == "null" and "null" in edb and not isinstance(i.args[0], Var):
            if (i.args[0] is NULL) == i.negated:
                return f"holds {_atom_text(i)}, which is false"
            continue
        elif i.negated:
            if Atom(i.pred, i.args) in body:
                return f"holds {_atom_text(i)} beside its negation"
        elif i.pred not in edb:
            if i.pred not in derived:
                return f"reads {i.pred!r}, which no rule derives"
        elif i.pred.startswith("attr_"):
            if (value := values.setdefault((i.pred, *i.args[:2]), i.args[2])) != i.args[2]:
                pairs.append((value, i.args[2]))
        items.append(i)
    if not pairs:
        return Rule(head, tuple(items))
    same: dict[Term, Term] = {}  # a merged variable to a term it equals

    def find(term: Term) -> Term:
        while term in same:
            term = same[term]
        return term

    for pair in pairs:  # constants first, then variables by length and name: V2 before V10
        kept, merged = sorted(map(find, pair), key=lambda t: (1, len(t.name), t.name) if isinstance(t, Var) else (0,))
        if kept == merged:
            continue
        if not isinstance(merged, Var):
            return f"equates {_term_text(kept)} and {_term_text(merged)}"
        same[merged] = kept
    # Name each value by its term, then normalize that rule: it decides the
    # nulls of a constant, and pairs the atoms of events that it merges.
    head = Atom(head.pred, tuple(map(find, head.args)))
    return _normalize(head, _body(Atom(i.pred, tuple(map(find, i.args)), i.negated) for i in items), edb, derived)


def _ends(need: frozenset[str], start: Term, end: Term) -> tuple[Term, ...]:
    """The arguments of an atom that reads the endpoints in `need`, then C."""
    return (*(v for at, v in (("start", start), ("end", end)) if at in need), _C)


def _value(attr: str, schema: tuple[str, ...]) -> Var:
    """The value of attribute `attr` at E: V<i>, i being its schema position."""
    return Var(f"V{schema.index(attr)}")


def _conjunct(conj: AttrEqConst | AttrEqAttr, schema: tuple[str, ...], negated: bool) -> list[tuple[Atom, ...]]:
    """The bodies of the events where conj holds, or fails when `negated`
    is set. Attribute a is always read as _value(a), so bodies over one
    event merge without a clash. a = b fails where a differs from b or a is
    null, a = a where a is null."""
    if isinstance(conj, AttrEqConst):
        return [(_EVENT, _attr_atom(conj.attr, str(conj.value), negated))]
    shared = _value(conj.left, schema)
    left = _attr_atom(conj.left, shared)
    if negated:
        null = (_EVENT, left, Atom("null", (shared,)))
        return [null] if conj.left == conj.right else [(_EVENT, left, _attr_atom(conj.right, shared, True)), null]
    return [_body((_EVENT, left, _attr_atom(conj.right, shared), Atom("null", (shared,), negated=True)))]


class _Translation:
    """Shared state while translating the patterns of one query. A derived
    predicate is its definition, its head arguments and its set of rule
    bodies over fixed variable names, so a relation that two subformulas or
    two patterns derive alike is one predicate. It gets no rule whose body
    can never hold, so a predicate with no rule is an empty relation, and a
    body that reads one is dropped in turn."""

    pattern: CompiledPattern  # the pattern being translated, set by root

    def __init__(self, edb: frozenset[str]) -> None:
        self.edb = edb
        self.rules: list[Rule] = []
        self.heads: set[str] = set()  # the predicates with a rule
        self.defined: dict[tuple, str] = {}  # by head arguments and bodies
        self.stars: dict[Atom, str] = {}  # a recursive star by its inner atom
        self.names = map("p{}".format, count())  # fresh predicate names

    def emit(self, head: Atom, body: tuple[Atom, ...]) -> None:
        """Add the rule head :- body, normalized, unless its body can never hold."""
        rule = _normalize(head, body, self.edb, self.heads)
        if isinstance(rule, Rule):
            self.rules.append(rule)
            self.heads.add(head.pred)

    def define(self, head: tuple[Term, ...], bodies: list[tuple[Atom, ...]]) -> str:
        """The predicate with these head arguments and this set of rule
        bodies: the one defined before, or a fresh one with a rule per body
        that can hold."""
        key = (head, frozenset(bodies))
        pred = self.defined.get(key)
        if pred is None:
            pred = self.defined[key] = next(self.names)
            for body in bodies:
                self.emit(Atom(pred, head), body)
        return pred

    def root(self, pattern: CompiledPattern, need: frozenset[str]) -> tuple[Atom, Term, Term]:
        """Translate a pattern read at the endpoints in `need`, as `read`
        does; its identifiers read its attribute and its behaviours."""
        self.pattern = pattern
        return self.read(pattern.formula, need, _TS, _TE)

    # -- identifier expressions -------------------------------------------

    def identifier(self, expr: IdentifierExpr, negated: bool = False) -> list[tuple[Atom, ...]]:
        """The rule bodies, over T and C, of the events that match expr, or
        fail it when `negated` is set; NOT flips the polarity. An OR, or a
        failed conjunction, holds where one part holds: its bodies are theirs.
        A conjunction, or a failed OR, holds where all parts hold: one body,
        into which a part of one body merges and a part of several is read
        through its (T, C) predicate. It has none if a part has none or the
        body can never hold. A literal is one conjunct a = value."""
        if isinstance(expr, NotExpr):
            return self.identifier(expr.inner, not negated)
        if isinstance(expr, OrExpr):
            parts = [self.identifier(side, negated) for side in (expr.left, expr.right)]
        elif isinstance(expr, Literal):
            parts = [_conjunct(AttrEqConst(self.pattern.attribute or "", expr.value), self.pattern.schema, negated)]
        elif isinstance(expr, BehaviourRef):
            parts = [_conjunct(c, self.pattern.schema, negated) for c in self.pattern.behaviour(expr.name).conjuncts]
        else:
            raise TypeError(f"not an identifier expression: {expr!r}")
        if isinstance(expr, OrExpr) != negated:  # any of the parts
            return list(dict.fromkeys(body for part in parts for body in part))
        if len(set(map(frozenset, parts))) == 1 or not all(parts):  # that part, or a part with no body
            return min(parts, key=len)
        bodies = [part[0] if len(part) == 1 else (Atom(self.define((_T, _C), part), (_T, _C)),) for part in parts]
        body = _body(item for body in bodies for item in body)
        rule = _normalize(Atom("", (_T, _C)), body, self.edb, self.heads)  # its reader's head is over T and C
        return [rule.body] if isinstance(rule, Rule) else []

    # -- pattern formulas ----------------------------------------------------

    def read(
        self, node: PatternFormula, need: frozenset[str], start: Term, end: Term, anchors: frozenset[str] = frozenset()
    ) -> tuple[Atom, Term, Term]:
        """The atom that reads node's nonempty segments over `start` and
        `end` at the endpoints in `need` ⊆ {start, end}, then the case, and
        the terms that stand for their start and end: its reader reads no
        more. A single event has one timestamp column, read as `start`.
        START and END add their endpoint to `anchors`, which `~>` and `->`
        pass to the operand that owns it, down to a single event or a star
        read at both ends, which joins `first` or `last`."""
        if isinstance(node, (Start, End)):
            return self.read(node.inner, need, start, end, anchors | {"start" if isinstance(node, Start) else "end"})
        if isinstance(node, Star) and need | anchors != _BOTH:
            # Every nonempty star segment begins and ends with an inner one.
            return self.read(node.inner, need, start, end, anchors)
        ts, te, ts2, te2 = _TS, _TE, _TS2, _TE2
        if isinstance(node, Star):  # read at both ends: the one recursion left
            inner, s, e = self.read(node.inner, _BOTH, ts, te)
            pred = self.stars.get(inner)
            if pred is None:  # it reads itself, so it is named before its rules
                pred = self.stars[inner] = next(self.names)
                self.emit(Atom(pred, (s, e, _C)), (inner,))
                self.emit(Atom(pred, (s, te2, _C)), (inner, Atom("next", (_C, e, ts2)), Atom(pred, (ts2, te2, _C))))
            if not anchors:
                return Atom(pred, (start, end, _C)), start, end
            bodies = [(Atom(pred, (ts, te, _C)),)]  # not s, e: a single event's are one term
        elif isinstance(node, (Follows, DirectlyFollows)):
            first, ts, te = self.read(node.left, need & {"start"} | {"end"}, ts, te, anchors & {"start"})
            second, ts2, te2 = self.read(node.right, need & {"end"} | {"start"}, ts2, te2, anchors & {"end"})
            anchors = frozenset()  # the operands join them
            # The successor atom sits between the operands, so the right
            # operand is probed on a bound start and case.
            if isinstance(node, DirectlyFollows):
                bodies = [(first, Atom("next", (_C, te, ts2)), second)]
            else:
                bodies = [(first, second, Atom("<", (te, ts2)))]
            te = te2
        elif isinstance(node, (Identifier, AnyEvent)):
            ts = te = _T
            bodies = self.identifier(node.expr) if isinstance(node, Identifier) else [(_EVENT,)]
        else:
            raise TypeError(f"not a pattern formula: {node!r}")
        joins = tuple(Atom(p, (_C, t)) for at, p, t in (("start", "first", ts), ("end", "last", te)) if at in anchors)
        bodies = [(*body, *joins) for body in bodies]
        if ts == te:  # a single event starts where it ends: one column
            need, end = need and frozenset({"start"}), start
        return Atom(self.define(_ends(need, ts, te), bodies), _ends(need, start, end)), start, end


def translate_pattern(pattern: CompiledPattern) -> list[Rule]:
    """Rules for the pattern read at both ends; they negate EDB atoms only.
    The head of the final rule is the root predicate, over (Ts, Te, C): the
    root of a single event repeats its one timestamp. A pattern that no
    segment can satisfy has no rule."""
    ctx = _Translation(edb_predicates(pattern.schema))
    root, start, end = ctx.root(pattern, _BOTH)
    if root.pred not in ctx.heads:
        return []
    pred = root.pred if start == end else None  # the root of a single event
    return [Rule(Atom(pred, r.head.args[:1] + r.head.args), r.body) if r.head.pred == pred else r for r in ctx.rules]


def _column_term(ref: ColumnRef, schema: tuple[str, ...]) -> Term:
    return _value(ref.name, schema) if ref.kind == "attr" else {"eid": _E, "cid": _C, "ts": _T}[ref.kind]


def translate_query(query: Query | Plan, schema: tuple[str, ...]) -> DatalogProgram:
    """Translate a whole query, compiled for `schema` unless it is a compiled
    plan already: the output rule, then the pattern rules. A row filter on
    attributes is a behaviour conjunct, and its body is the conjunct's; one
    on eid, cid or ts is an = item. The output rule is normalized as every
    rule is, so each value is one term: the output reads each attribute
    once, and a filtered column holds its constant, as in event(C,"e1",1).
    A row filter that compares two sorts, such as eid = cid or ts = 'x',
    never holds, as on the relational side: its query has no rule."""
    plan = query if isinstance(query, Plan) else compile_plan(query, schema)
    schema, edb = plan.schema, edb_predicates(plan.schema)
    base_body: list[Atom] = [_EVENT]
    base_body += (_attr_atom(ref.name, _column_term(ref, schema)) for ref in plan.projection if ref.kind == "attr")
    for sel in plan.row_selections:
        refs = row_columns(sel, schema)
        kind = refs[0].kind
        if refs[-1].kind != kind or (kind == "ts" and isinstance(sel, AttrEqConst) and isinstance(sel.value, str)):
            return DatalogProgram((), edb)  # it compares two sorts
        if kind == "attr":
            base_body += _conjunct(sel, schema, False)[0]
        elif isinstance(sel, AttrEqConst):  # an int for ts; a str for an id
            base_body.append(Atom("=", (_column_term(refs[0], schema), sel.value if kind == "ts" else str(sel.value))))
        else:
            base_body.append(Atom("=", tuple(_column_term(ref, schema) for ref in refs)))

    # A star pattern holds on every case through the empty segment, which no
    # derived tuple witnesses, so its atom could never narrow the output: it
    # gets neither an atom nor rules. The output reads no endpoint of a root.
    # A query whose output body can never hold has no rule at all.
    ctx = _Translation(edb)
    roots = [ctx.root(p, frozenset())[0] for p in plan.pattern_selections if not matches_empty(p.formula)]
    head = Atom(OUTPUT_PRED, tuple(_column_term(ref, schema) for ref in plan.projection))
    rule = _normalize(head, _body((*base_body, *roots)), edb, ctx.heads)
    return DatalogProgram((rule, *ctx.rules) if isinstance(rule, Rule) else (), edb)


# --- static audit (safety + semi-positive negation) ---------------------------

def _item_vars(item: Atom) -> set[Var]:
    return {t for t in item.args if isinstance(t, Var)}


def audit_program(program: DatalogProgram) -> list[tuple[str, str]]:
    """Static scan; returns (kind, message) findings, empty when clean.
    Kinds: "unsafe" for a variable that no positive relation atom binds, or
    a built-in < or = that is negated or not of two terms; "stratification"
    for a negated atom that is not EDB; and "unsatisfiable" for a body that
    can never hold: it reads a derived predicate with no rule, such as >,
    equates two constants, or holds an atom beside its negation."""
    findings: list[tuple[str, str]] = []
    derived = {rule.head.pred for rule in program.rules}
    for rule in program.rules:
        head = rule.head.pred
        # One set for the whole body: a call of _item_vars per atom, merged,
        # made the audit about 1.4 times slower on translated programs.
        positive = {
            t for i in rule.body if not (i.negated or i.pred in _BUILTINS) for t in i.args if isinstance(t, Var)
        }
        checked = [(rule.head, "the head")] + [
            (i, f"built-in {i.pred}" if i.pred in _BUILTINS else f"negated atom {i.pred}")
            for i in rule.body if i.negated or i.pred in _BUILTINS
        ]
        for item, where in checked:
            for name in sorted(v.name for v in _item_vars(item) - positive):
                findings.append(
                    ("unsafe", f"variable {name} in {where} of rule for {head!r} is not bound by a positive body atom")
                )
            if item.pred in _BUILTINS and (item.negated or len(item.args) != 2):
                findings.append(("unsafe", f"{where} of rule for {head!r} must hold two terms and not be negated"))
            elif item.negated and item.pred not in program.edb_predicates:
                findings.append(
                    ("stratification", f"negated predicate {item.pred!r} in rule for {head!r} is not EDB")
                )
        if isinstance(reason := _normalize(rule.head, rule.body, program.edb_predicates, derived), str):
            findings.append(("unsatisfiable", f"rule for {head!r} {reason}"))
    return findings


# --- evaluation ---------------------------------------------------------------
# The derived predicates are grouped into strongly connected components,
# which run in dependency order, each over the complete relations of those
# before it. Each rule runs once over full relations, then semi-naively on
# each round's new tuples of its own component, if it reads any.
#
# A rule is compiled once into a pipeline of generators over rows, the
# tuples of a partial binding: every constant of the rule, bound from the
# first row, then each variable in the order its atom binds it. Each
# positive atom, in body order, is probed through a hash index on every
# position whose term is bound when it is reached, a constant or a variable,
# built from the tuples that repeat a value where the atom repeats a
# variable; atoms that differ only in their constants share one index. An
# atom whose new variables nothing after it reads is a semi-join: one
# membership test per row. Comparisons and negated atoms filter the rows at
# the first atom after which their variables are bound.


class _Index(NamedTuple):
    """The tuples of `pred` with arity `arity` and equal values at each
    `repeats` pair, keyed at `positions`: a dict from key to their values at
    `values`, or the set of keys if `values` is empty."""

    pred: str
    arity: int
    positions: tuple[int, ...]
    repeats: tuple[tuple[int, int], ...]
    values: tuple[int, ...]


_Getter = Callable[[tuple], object]
_Filter = tuple[str, object, object]  # ("=" or "<", slot, slot), or a negated atom's ("!", index, key)


class _Step(NamedTuple):
    """One positive body atom: `key` reads the probe key from a row."""

    index: _Index
    key: _Getter
    filters: tuple[_Filter, ...]  # the filters ready after this atom


class _JoinPlan(NamedTuple):
    row: tuple[Const, ...]  # the first row: the constants of the rule
    filters: tuple[_Filter, ...]  # filters that need no atom's bindings
    steps: tuple[_Step, ...]
    head: _Getter


def _picker(positions: tuple[int, ...]) -> _Getter:
    """A function from a tuple to the tuple of its values at `positions`.
    Consecutive positions are a slice, which returns a whole tuple itself."""
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _key(positions: tuple[int, ...]) -> _Getter:
    """The values at `positions`, a bare value for one position; a probe and
    its index build their keys with this function, so the two agree."""
    return itemgetter(*positions) if positions else _picker(())


def _compile_rule(rule: Rule) -> _JoinPlan:
    atoms: list[tuple[set[Var], Atom]] = []
    pending: list[tuple[set[Var], Atom]] = []
    for item in rule.body:
        (pending if item.negated or item.pred in _BUILTINS else atoms).append((_item_vars(item), item))
    # By constant, then by variable: keyed by the Var itself, so the
    # constant "C" never takes variable C's slot.
    slots: dict[Term, int] = {}
    for const in dict.fromkeys(t for i in (rule.head, *rule.body) for t in i.args if not isinstance(t, Var)):
        slots[const] = len(slots)
    first_row = tuple(slots)
    # A filter that reads an atom's new variable cannot run before that atom.
    # later[k] is what the head, the filters and the atoms after atom k read.
    read = _item_vars(rule.head).union(*(names for names, _ in pending))
    later: list[set[Var]] = []
    for names, _ in reversed(atoms):
        later.append(read)
        read = read | names
    later.reverse()
    filters = _ready(pending, slots)
    steps: list[_Step] = []
    for (_, atom), after in zip(atoms, later):
        index, key, fresh = _probe(atom, slots, after)
        if index.values:
            for var in fresh:
                slots[var] = len(slots)
        steps.append(_Step(index, key, _ready(pending, slots)))
    head = _picker(tuple(slots[t] for t in rule.head.args))
    return _JoinPlan(first_row, filters, tuple(steps), head)


def _ready(pending: list[tuple[set[Var], Atom]], slots: dict[Term, int]) -> tuple[_Filter, ...]:
    """Take from `pending` the filters whose variables have slots."""
    bound = slots.keys()
    ready = [item for names, item in pending if names <= bound]
    if not ready:
        return ()
    pending[:] = [(names, item) for names, item in pending if not names <= bound]
    return tuple(
        (item.pred, slots[item.args[0]], slots[item.args[1]]) if item.pred in _BUILTINS
        else ("!", *_probe(item, slots)[:2])
        for item in ready
    )


def _probe(atom: Atom, slots: dict[Term, int], later: set[Var] = frozenset()) -> tuple[_Index, _Getter, dict[Var, int]]:
    """The index through which an atom is probed once `slots` are bound,
    the function that reads its probe key from a row, and its new variables
    with the position of each. Every constant has a slot, so the index is
    keyed on the constants' positions too. Unless `later` reads a new
    variable, the index is a set of keys: a semi-join."""
    positions: list[int] = []
    repeats: list[tuple[int, int]] = []
    fresh: dict[Var, int] = {}
    for i, term in enumerate(atom.args):
        if term in slots:
            positions.append(i)
        elif term in fresh:
            repeats.append((i, fresh[term]))
        else:
            fresh[term] = i
    values = () if later.isdisjoint(fresh) else tuple(fresh.values())
    index = _Index(atom.pred, len(atom.args), tuple(positions), tuple(repeats), values)
    return index, _key(tuple(slots[atom.args[i]] for i in positions)), fresh


class _Relations:
    """Relations by predicate, each with the indexes read so far, which are
    built on first use and extended as tuples are added."""

    def __init__(self, rels: FactSet):
        self.rels = rels
        self._indexes: dict[str, dict[_Index, defaultdict | set]] = {}

    def index(self, spec: _Index) -> defaultdict | set:
        by_spec = self._indexes.setdefault(spec.pred, {})
        idx = by_spec.get(spec)
        if idx is None:
            idx = by_spec[spec] = defaultdict(list) if spec.values else set()
            _extend_index(idx, spec, self.rels.get(spec.pred, ()))
        return idx

    def add(self, pred: str, tuples: set[tuple[Const, ...]]) -> None:
        """Add tuples that are not yet in the relation."""
        self.rels[pred] |= tuples
        for spec, idx in self._indexes.get(pred, {}).items():
            _extend_index(idx, spec, tuples)


def _extend_index(idx: defaultdict | set, spec: _Index, tuples: Iterable[tuple[Const, ...]]) -> None:
    fits = [t for t in tuples if len(t) == spec.arity]
    if spec.repeats:
        left, right = _picker(tuple(i for i, _ in spec.repeats)), _picker(tuple(j for _, j in spec.repeats))
        fits = [t for t in fits if left(t) == right(t)]
    key = _key(spec.positions)
    if spec.values:
        for k, values in zip(map(key, fits), map(_picker(spec.values), fits)):
            idx[k].append(values)
    else:
        idx.update(map(key, fits))


def _join(rows: Iterable[tuple], index: dict, key: _Getter) -> Iterator[tuple]:
    get = index.get
    for row in rows:
        for values in get(key(row), ()):
            yield row + values


def _contains(keys: dict | set, key: _Getter) -> Callable[[tuple], bool]:
    return lambda row: key(row) in keys


def _filtered(rows: Iterable[tuple], filters: tuple[_Filter, ...], rels: _Relations) -> Iterable[tuple]:
    for op, a, b in filters:
        if op == "!":
            rows = filterfalse(_contains(rels.index(a), b), rows)
        else:
            rows = filter(_comparison(op, a, b), rows)
    return rows


def _comparison(op: str, a: int, b: int) -> Callable[[tuple], bool]:
    if op == "=":
        return lambda row: row[a] == row[b]
    return lambda row: isinstance(row[a], int) and isinstance(row[b], int) and row[a] < row[b]


def _eval_rule(
    plan: _JoinPlan,
    rels: _Relations,
    delta_step: int | None = None,
    delta: _Relations | None = None,
) -> set[tuple[Const, ...]]:
    """Head tuples of one rule; step `delta_step` reads `delta` in place of
    its relation."""
    rows: Iterable[tuple] = _filtered((plan.row,), plan.filters, rels)
    for k, step in enumerate(plan.steps):
        index = (delta if k == delta_step else rels).index(step.index)
        if step.index.values:
            rows = _join(rows, index, step.key)
        else:
            rows = filter(_contains(index, step.key), rows)
        rows = _filtered(rows, step.filters, rels)
    return set(map(plan.head, rows))


def _components(rules: tuple[Rule, ...]) -> list[list[Rule]]:
    """The rules grouped by the strongly connected component of their head,
    each group after every group that it reads."""
    reads: dict[str, set[str]] = {r.head.pred: set() for r in rules}
    for r in rules:
        reads[r.head.pred].update(a.pred for a in r.body if a.pred in reads)
    reach: dict[str, set[str]] = {}  # each predicate and every one that it depends on
    for p in reads:
        seen, todo = {p}, [p]
        while todo:
            for q in reads[todo.pop()] - seen:
                seen.add(q)
                todo.append(q)
        reach[p] = seen
    # If p reads q of another component, reach[p] holds p besides reach[q],
    # so sorting by size puts q's component first.
    order = sorted(reach, key=lambda p: len(reach[p]))
    components = dict.fromkeys(frozenset(q for q in reach[p] if p in reach[q]) for p in order)
    return [[r for r in rules if r.head.pred in component] for component in components]


def evaluate(program: DatalogProgram, facts: FactSet) -> FactSet:
    """Least fixpoint, one dependency component at a time, each by
    semi-naive iteration on its own new tuples. The input FactSet is not
    mutated; the result holds EDB and derived relations together."""
    for kind, message in audit_program(program):
        if kind != "unsatisfiable":  # such a rule runs, and derives nothing
            raise UnsafeRule(message) if kind == "unsafe" else StratificationViolation(message)
    rels: dict[str, set[tuple[Const, ...]]] = {p: set(ts) for p, ts in facts.items()}
    for rule in program.rules:
        rels.setdefault(rule.head.pred, set())
    for pred in program.edb_predicates:
        rels.setdefault(pred, set())
    store = _Relations(rels)
    # The audit guarantees that only EDB atoms are negated, so every negation
    # reads a relation that evaluation never grows.
    for rules in _components(program.rules):
        plans = [(r.head.pred, _compile_rule(r)) for r in rules]
        delta: dict[str, set[tuple[Const, ...]]] = {}
        for pred, plan in plans:
            fresh = _eval_rule(plan, store) - rels[pred]
            if fresh:
                delta.setdefault(pred, set()).update(fresh)
        while delta:
            for pred, tuples in delta.items():
                store.add(pred, tuples)
            seeds = _Relations(delta)
            next_delta: dict[str, set[tuple[Const, ...]]] = {}
            for pred, plan in plans:
                for k, step in enumerate(plan.steps):
                    if step.index.pred not in delta:
                        continue
                    fresh = _eval_rule(plan, store, k, seeds) - rels[pred]
                    if fresh:
                        next_delta.setdefault(pred, set()).update(fresh)
            delta = next_delta
    return rels


# --- serialization ------------------------------------------------------------

# The quote, the backslash and every character that str.splitlines breaks
# on, escaped, so that each rule and each fact is one line of text.
_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}
    | {c: f"\\u{ord(c):04x}" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _const_text(value: Const) -> str:
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return f'"{value.translate(_ESCAPES)}"'


def _term_text(term: Term) -> str:
    return term.name if isinstance(term, Var) else _const_text(term)


def _atom_text(atom: Atom) -> str:
    bang = "!" if atom.negated else ""
    return f"{bang}{atom.pred}({','.join(_term_text(a) for a in atom.args)})"


def _body_text(item: Atom) -> str:
    if item.pred in _BUILTINS and len(item.args) == 2 and not item.negated:
        return f"{_term_text(item.args[0])} {item.pred} {_term_text(item.args[1])}"
    return _atom_text(item)


def rule_to_text(rule: Rule) -> str:
    return f"{_atom_text(rule.head)} :- {', '.join(_body_text(i) for i in rule.body)}."


def program_to_text(program: DatalogProgram) -> str:
    return "\n".join(rule_to_text(r) for r in program.rules)


def facts_to_text(facts: FactSet) -> str:
    lines = []
    for pred in sorted(facts):
        for tup in sorted(facts[pred], key=lambda t: tuple(_const_text(v) for v in t)):
            lines.append(f"{pred}({','.join(_const_text(v) for v in tup)}).")
    return "\n".join(lines)


# --- differential check -------------------------------------------------------

class CheckReport(NamedTuple):
    """Set-normalized comparison of the two back ends on one query."""

    ra_rows: frozenset[tuple]
    datalog_rows: frozenset[tuple]

    @property
    def equal(self) -> bool:
        return self.ra_rows == self.datalog_rows

    @property
    def ra_only(self) -> frozenset[tuple]:
        return self.ra_rows - self.datalog_rows

    @property
    def datalog_only(self) -> frozenset[tuple]:
        return self.datalog_rows - self.ra_rows

    def summary(self) -> str:
        if self.equal:
            return f"EQUAL ({len(self.ra_rows)} distinct tuples)"
        return (
            f"MISMATCH: {len(self.ra_only)} tuples only in the relational result, "
            f"{len(self.datalog_only)} only in the datalog result"
        )


def cross_check(query: Query, log: EventLog) -> CheckReport:
    """Run both back ends and compare projections as sets. A mismatch is
    report data, not an error."""
    plan = compile_plan(query, log.schema)
    ra_rows = frozenset(execute(plan, log).rows)
    derived = evaluate(translate_query(plan, log.schema), facts_from_log(log))
    dl_rows = frozenset(derived.get(OUTPUT_PRED, set()))
    return CheckReport(ra_rows, dl_rows)
