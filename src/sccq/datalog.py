"""Datalog back end: fact extraction, query translation, evaluation.

The extensional database holds one ``event(C,E,T)`` fact per event, one
``attr_<name>(C,E,V)`` fact per attribute value, where a null value is the
constant ``null``, and the one fact ``null(null)``. Per case it holds one
``next(C,T1,T2)`` fact per pair of consecutive events, and one
``first(C,T)`` and one ``last(C,T)`` fact. Patterns translate to one
intensional predicate per subformula, where a whole identifier expression
is one subformula: NOT flips the polarity of its rules, and the sides of an
OR derive its predicate themselves; only a negated OR gives each side a
predicate, joined in one rule. A query adds one ``output`` rule, which
joins the base body with the root atom of every pattern that is not a star
(a star holds on every case).

Every negated atom is an EDB atom, so a translated program is semi-positive
by construction: START and END join ``first`` and ``last``, a negated
behaviour reference expands by De Morgan into one rule per conjunct, and an
equality between two attributes excludes ``null``. ``evaluate`` audits
safety and semi-positivity, then evaluates the strongly connected
components of the predicate graph in dependency order: a component that
does not read itself runs once, a recursive one by semi-naive iteration on
its own new tuples. Each rule runs as a pipeline of hash-indexed joins and
semi-joins. The same audit is exposed for static scans.

Constants are namespaced by sort (case id, event id, timestamp, attribute
value, null) so equalities across sorts never unify by accident; timestamps
are plain ints so the comparison built-ins apply to them alone.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Union

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
from .engine import ColumnEquality, ColumnRef, ConstEquality, Plan, compile_plan, execute
from .errors import MalformedCsv, StratificationViolation, UnsafeRule
from .eventlog import EventLog, event_sets
from .matcher import CompiledPattern

Const = Union[int, tuple[str, str]]  # int = timestamp; ("c"|"e"|"v"|"n", text) otherwise


@dataclass(frozen=True)
class Var:
    name: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class Cmp:
    """Built-in comparison. < is defined on timestamps only; = is plain
    sort-aware equality."""

    op: str  # "<" or "="
    left: Term
    right: Term


BodyItem = Union[Atom, Cmp]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyItem, ...]


@dataclass(frozen=True)
class DatalogProgram:
    rules: tuple[Rule, ...]
    edb_predicates: frozenset[str]


FactSet = dict[str, set[tuple[Const, ...]]]

OUTPUT_PRED = "output"

_C, _E, _T = Var("C"), Var("E"), Var("T")

NULL: Const = ("n", "")  # the value of every null attribute


def cid_const(value: str) -> Const:
    return ("c", value)


def eid_const(value: str) -> Const:
    return ("e", value)


def value_const(value: str) -> Const:
    return ("v", value)


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
        c, e = cid_const(ev.cid), eid_const(ev.eid)
        facts["event"].add((c, e, ev.ts))
        for name, value in ev.attrs:
            facts[preds[name]].add((c, e, NULL if value is None else value_const(value)))
    for es in event_sets(log):
        c = cid_const(es.cid)
        ts = es.timestamps
        facts["next"].update((c, t1, t2) for t1, t2 in zip(ts, ts[1:]))
        facts["first"].add((c, ts[0]))
        facts["last"].add((c, ts[-1]))
    return facts


def _attr_atom(attr: str, value: Term, negated: bool = False) -> Atom:
    return Atom(attribute_predicate(attr), (_C, _E, value), negated)


class _Translation:
    """Shared state while translating one or more patterns."""

    pattern: CompiledPattern  # the pattern being translated, set by root

    def __init__(self) -> None:
        self.rules: list[Rule] = []
        # The rules emitted so far per head predicate. Only rules of one head
        # can repeat each other, so a new rule is compared with those alone,
        # which for most heads are none: cheaper than hashing every rule.
        self.by_head: dict[str, list[Rule]] = {}
        self.counter = 0

    def fresh_pred(self) -> str:
        name = f"p{self.counter}"
        self.counter += 1
        return name

    def emit(self, head: Atom, *body: BodyItem) -> None:
        """Add the rule, unless the same rule was emitted before."""
        rule = Rule(head, body)
        same_head = self.by_head.setdefault(head.pred, [])
        if rule not in same_head:
            same_head.append(rule)
            self.rules.append(rule)

    def root(self, pattern: CompiledPattern) -> str:
        """Translate a pattern; returns its root predicate."""
        self.pattern = pattern
        return self.formula_pred(pattern.formula)

    # -- identifier expressions -------------------------------------------

    def identifier(self, expr: IdentifierExpr, pred: str, negated: bool = False) -> None:
        """Emit the rules that derive pred(T,T,C) for the events that match
        expr, or that fail it when `negated` is set. NOT flips the polarity
        and the sides of a positive OR derive pred themselves, so neither
        needs a predicate of its own."""
        head, single = Atom(pred, (_T, _T, _C)), Atom("event", (_C, _E, _T))
        if isinstance(expr, NotExpr):
            self.identifier(expr.inner, pred, not negated)
        elif isinstance(expr, OrExpr) and not negated:
            self.identifier(expr.left, pred)
            self.identifier(expr.right, pred)
        elif isinstance(expr, OrExpr):
            # An event fails an OR where it fails both sides.
            ts, te = Var("Ts"), Var("Te")
            sides = []
            for sub in (expr.left, expr.right):
                sides.append(Atom(self.fresh_pred(), (ts, te, _C)))
                self.identifier(sub, sides[-1].pred, negated=True)
            self.emit(Atom(pred, (ts, te, _C)), *sides)
        elif isinstance(expr, Literal):
            self.emit(head, single, _attr_atom(self.pattern.attribute or "", value_const(expr.value), negated))
        elif isinstance(expr, BehaviourRef) and not negated:
            atoms: list[Atom] = []
            for i, conj in enumerate(self.pattern.behaviour(expr.name).conjuncts):
                if isinstance(conj, AttrEqConst):
                    atoms.append(_attr_atom(conj.attr, value_const(str(conj.value))))
                else:
                    shared = Var(f"V{i}")
                    atoms += [
                        _attr_atom(conj.left, shared),
                        _attr_atom(conj.right, shared),
                        Atom("null", (shared,), negated=True),
                    ]
            self.emit(head, single, *atoms)
        elif isinstance(expr, BehaviourRef):
            # De Morgan: the behaviour fails where one of its conjuncts fails.
            # a = b fails where a differs from b or a is null.
            for i, conj in enumerate(self.pattern.behaviour(expr.name).conjuncts):
                if isinstance(conj, AttrEqConst):
                    self.emit(head, single, _attr_atom(conj.attr, value_const(str(conj.value)), True))
                else:
                    shared = Var(f"V{i}")
                    left = _attr_atom(conj.left, shared)
                    self.emit(head, single, left, _attr_atom(conj.right, shared, True))
                    self.emit(head, single, left, Atom("null", (shared,)))
        else:
            raise TypeError(f"not an identifier expression: {expr!r}")

    # -- pattern formulas ----------------------------------------------------

    def formula_pred(self, node: PatternFormula) -> str:
        ts, te, ts2, te2 = Var("Ts"), Var("Te"), Var("Ts2"), Var("Te2")
        if isinstance(node, Identifier):
            pred = self.fresh_pred()
            self.identifier(node.expr, pred)
            return pred
        if isinstance(node, AnyEvent):
            pred = self.fresh_pred()
            self.emit(Atom(pred, (_T, _T, _C)), Atom("event", (_C, _E, _T)))
            return pred
        if isinstance(node, (Follows, DirectlyFollows)):
            left = self.formula_pred(node.left)
            right = self.formula_pred(node.right)
            pred = self.fresh_pred()
            first, second = Atom(left, (ts, te, _C)), Atom(right, (ts2, te2, _C))
            if isinstance(node, DirectlyFollows):
                # The successor atom sits between the operands, so the right
                # operand is probed on a bound start and case.
                self.emit(Atom(pred, (ts, te2, _C)), first, Atom("next", (_C, te, ts2)), second)
            else:
                self.emit(Atom(pred, (ts, te2, _C)), first, second, Cmp("<", te, ts2))
            return pred
        if isinstance(node, Star):
            inner = self.formula_pred(node.inner)
            pred = self.fresh_pred()
            self.emit(Atom(pred, (ts, te, _C)), Atom(inner, (ts, te, _C)))
            self.emit(
                Atom(pred, (ts, te2, _C)),
                Atom(inner, (ts, te, _C)),
                Atom("next", (_C, te, ts2)),
                Atom(pred, (ts2, te2, _C)),
            )
            return pred
        if isinstance(node, (Start, End)):
            inner = self.formula_pred(node.inner)
            pred = self.fresh_pred()
            anchor = Atom("first", (_C, ts)) if isinstance(node, Start) else Atom("last", (_C, te))
            self.emit(Atom(pred, (ts, te, _C)), Atom(inner, (ts, te, _C)), anchor)
            return pred
        raise TypeError(f"not a pattern formula: {node!r}")


def translate_pattern(pattern: CompiledPattern) -> list[Rule]:
    """Rules for every subformula of the pattern; they negate EDB atoms only.
    The head of the final rule is the pattern's root predicate."""
    ctx = _Translation()
    ctx.root(pattern)
    return ctx.rules


def _column_term(ref: ColumnRef, attr_vars: dict[str, Var]) -> Term:
    if ref.kind == "eid":
        return _E
    if ref.kind == "cid":
        return _C
    if ref.kind == "ts":
        return _T
    return attr_vars[ref.attribute]  # type: ignore[index]


def _const_term(ref: ColumnRef, value: str | int) -> Const:
    if ref.kind == "eid":
        return eid_const(str(value))
    if ref.kind == "cid":
        return cid_const(str(value))
    if ref.kind == "ts":
        return value if isinstance(value, int) else value_const(value)
    return value_const(str(value))


def translate_query(query: Query, schema: tuple[str, ...]) -> DatalogProgram:
    """Translate a whole query: the output rule, then the pattern rules."""
    return _translate_plan(compile_plan(query, schema))


def _translate_plan(plan: Plan) -> DatalogProgram:
    """Translate a query already compiled for its schema."""
    edb = edb_predicates(plan.schema)

    referenced: list[str] = []
    for ref in plan.projection:
        if ref.kind == "attr" and ref.attribute not in referenced:
            referenced.append(ref.attribute)  # type: ignore[arg-type]
    for sel in plan.row_selections:
        refs = (sel.left, sel.right) if isinstance(sel, ColumnEquality) else (sel.column,)
        for ref in refs:
            if ref.kind == "attr" and ref.attribute not in referenced:
                referenced.append(ref.attribute)  # type: ignore[arg-type]
    attr_vars = {name: Var(f"V{i}") for i, name in enumerate(referenced)}

    base_body: list[BodyItem] = [Atom("event", (_C, _E, _T))]
    base_body.extend(_attr_atom(name, attr_vars[name]) for name in referenced)
    for sel in plan.row_selections:
        if isinstance(sel, ConstEquality):
            base_body.append(Cmp("=", _column_term(sel.column, attr_vars), _const_term(sel.column, sel.value)))
        else:
            left = _column_term(sel.left, attr_vars)
            base_body.append(Cmp("=", left, _column_term(sel.right, attr_vars)))
            if sel.left.kind == sel.right.kind == "attr":
                base_body.append(Atom("null", (left,), negated=True))

    # A star pattern holds on every case through the empty segment, which no
    # derived tuple witnesses, so its atom could never narrow the output: it
    # gets neither an atom nor rules.
    ctx = _Translation()
    pattern_atoms = [
        Atom(ctx.root(pattern), (Var(f"Ps{i}"), Var(f"Pe{i}"), _C))
        for i, pattern in enumerate(plan.pattern_selections)
        if not matches_empty(pattern.formula)
    ]
    head = Atom(OUTPUT_PRED, tuple(_column_term(ref, attr_vars) for ref in plan.projection))
    rules = [Rule(head, tuple([*base_body, *pattern_atoms])), *ctx.rules]
    return DatalogProgram(tuple(rules), edb)


# --- static audit (safety + semi-positive negation) ---------------------------

def _term_vars(term: Term) -> set[str]:
    return {term.name} if isinstance(term, Var) else set()


def audit_program(program: DatalogProgram) -> list[tuple[str, str]]:
    """Static scan; returns (kind, message) findings, empty when clean.
    Kinds: "unsafe", and "stratification" for a negated atom whose predicate
    is not EDB."""
    findings: list[tuple[str, str]] = []
    for rule in program.rules:
        positive: set[str] = set()
        for item in rule.body:
            if isinstance(item, Atom) and not item.negated:
                for arg in item.args:
                    positive |= _term_vars(arg)
        def check_bound(vars_: set[str], where: str) -> None:
            for name in sorted(vars_ - positive):
                findings.append(
                    ("unsafe", f"variable {name} in {where} of rule for {rule.head.pred!r} "
                               f"is not bound by a positive body atom")
                )
        head_vars: set[str] = set()
        for arg in rule.head.args:
            head_vars |= _term_vars(arg)
        check_bound(head_vars, "the head")
        for item in rule.body:
            if isinstance(item, Atom) and item.negated:
                vars_ = set()
                for arg in item.args:
                    vars_ |= _term_vars(arg)
                check_bound(vars_, f"negated atom {item.pred}")
                if item.pred not in program.edb_predicates:
                    findings.append(
                        ("stratification", f"negated predicate {item.pred!r} in rule for "
                                           f"{rule.head.pred!r} is not EDB")
                    )
            elif isinstance(item, Cmp):
                check_bound(_term_vars(item.left) | _term_vars(item.right), f"built-in {item.op}")
    return findings


def _check_program(program: DatalogProgram) -> None:
    for kind, message in audit_program(program):
        raise UnsafeRule(message) if kind == "unsafe" else StratificationViolation(message)


# --- evaluation ---------------------------------------------------------------
# The derived predicates are grouped into strongly connected components,
# which run in dependency order, each over the complete relations of those
# before it. Each rule runs once over full relations, then semi-naively on
# each round's new tuples of its own component, if it reads any.
#
# A rule is compiled once into a pipeline of generators over rows, the
# tuples of a partial binding: the constants of the head and comparisons,
# then each variable in the order its atom binds it. Each positive atom, in
# body order, is probed through a hash index on the positions bound when it
# is reached, built from the tuples that hold its constants and repeated
# variables. An atom whose new variables nothing after it reads is a
# semi-join: one membership test per row. Comparisons and negated atoms
# filter the rows at the first atom after which their variables are bound.


class _Index(NamedTuple):
    """The tuples of `pred` with arity `arity`, the `consts` and equal values
    at each `repeats` pair, keyed at `positions`: a dict from key to their
    values at `values`, or the set of keys if `values` is empty."""

    pred: str
    arity: int
    positions: tuple[int, ...]
    consts: tuple[tuple[int, Const], ...]
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
    row: tuple[Const, ...]  # the first row: the constants of the head and comparisons
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


def _item_vars(item: BodyItem) -> set[str]:
    if isinstance(item, Cmp):
        return _term_vars(item.left) | _term_vars(item.right)
    return {name for arg in item.args for name in _term_vars(arg)}


def _compile_rule(rule: Rule) -> _JoinPlan:
    atoms = [item for item in rule.body if isinstance(item, Atom) and not item.negated]
    pending = [
        (_item_vars(item), item) for item in rule.body if not (isinstance(item, Atom) and not item.negated)
    ]
    cmp_terms = (t for _, item in pending if isinstance(item, Cmp) for t in (item.left, item.right))
    slots: dict[str | Const, int] = {}  # by constant, then by variable name
    for const in dict.fromkeys(t for t in (*rule.head.args, *cmp_terms) if not isinstance(t, Var)):
        slots[const] = len(slots)
    first_row = tuple(slots)
    # A filter that reads an atom's new variable cannot run before that atom.
    read = _item_vars(rule.head).union(*(names for names, _ in pending))
    filters = _ready(pending, slots)
    steps: list[_Step] = []
    for k, atom in enumerate(atoms):
        index, key, fresh = _probe(atom, slots, read.union(*map(_item_vars, atoms[k + 1:])))
        if index.values:
            for name in fresh:
                slots[name] = len(slots)
        steps.append(_Step(index, key, _ready(pending, slots)))
    head = _picker(tuple(_slot(t, slots) for t in rule.head.args))
    return _JoinPlan(first_row, filters, tuple(steps), head)


def _ready(pending: list[tuple[set[str], BodyItem]], slots: dict[str | Const, int]) -> tuple[_Filter, ...]:
    """Take from `pending` the filters whose variables have slots."""
    ready = [item for names, item in pending if names <= slots.keys()]
    pending[:] = [(names, item) for names, item in pending if not names <= slots.keys()]
    return tuple(
        (item.op, _slot(item.left, slots), _slot(item.right, slots)) if isinstance(item, Cmp)
        else ("!", *_probe(item, slots)[:2])
        for item in ready
    )


def _slot(term: Term, slots: dict[str | Const, int]) -> int:
    return slots[term.name if isinstance(term, Var) else term]


def _probe(
    atom: Atom, slots: dict[str | Const, int], later: set[str] = frozenset()
) -> tuple[_Index, _Getter, dict[str, int]]:
    """The index through which an atom is probed once `slots` are bound,
    the function that reads its probe key from a row, and its new variables
    with the position of each. Unless `later` reads a new variable, the
    index is a set of keys: a semi-join."""
    positions: list[int] = []
    consts: list[tuple[int, Const]] = []
    repeats: list[tuple[int, int]] = []
    fresh: dict[str, int] = {}
    for i, arg in enumerate(atom.args):
        if not isinstance(arg, Var):
            consts.append((i, arg))
        elif arg.name in slots:
            positions.append(i)
        elif arg.name in fresh:
            repeats.append((i, fresh[arg.name]))
        else:
            fresh[arg.name] = i
    values = () if later.isdisjoint(fresh) else tuple(fresh.values())
    index = _Index(atom.pred, len(atom.args), tuple(positions), tuple(consts), tuple(repeats), values)
    return index, _key(tuple(slots[atom.args[i].name] for i in positions)), fresh


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
    if spec.consts:
        at, want = _picker(tuple(i for i, _ in spec.consts)), tuple(c for _, c in spec.consts)
        fits = [t for t in fits if at(t) == want]
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
        reads[r.head.pred].update(a.pred for a in r.body if isinstance(a, Atom) and a.pred in reads)
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
    _check_program(program)
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
                    fresh -= next_delta.get(pred, set())
                    if fresh:
                        next_delta.setdefault(pred, set()).update(fresh)
            delta = next_delta
    return rels


# --- serialization ------------------------------------------------------------

def _const_text(value: Const) -> str:
    if isinstance(value, int):
        return str(value)
    if value == NULL:
        return "null"
    payload = value[1].replace("\\", "\\\\").replace('"', '\\"')
    return f'"{payload}"'


def _term_text(term: Term) -> str:
    return term.name if isinstance(term, Var) else _const_text(term)


def _atom_text(atom: Atom) -> str:
    bang = "!" if atom.negated else ""
    return f"{bang}{atom.pred}({','.join(_term_text(a) for a in atom.args)})"


def _body_text(item: BodyItem) -> str:
    if isinstance(item, Cmp):
        return f"{_term_text(item.left)} {item.op} {_term_text(item.right)}"
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

def _untag(value: Const) -> str | int | None:
    if value == NULL:
        return None
    return value if isinstance(value, int) else value[1]


@dataclass(frozen=True)
class CheckReport:
    """Set-normalized comparison of the two back ends on one query."""

    equal: bool
    ra_rows: frozenset[tuple]
    datalog_rows: frozenset[tuple]
    ra_only: frozenset[tuple]
    datalog_only: frozenset[tuple]

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
    program = _translate_plan(plan)
    derived = evaluate(program, facts_from_log(log))
    dl_rows = frozenset(tuple(_untag(v) for v in t) for t in derived.get(OUTPUT_PRED, set()))
    return CheckReport(
        equal=ra_rows == dl_rows,
        ra_rows=ra_rows,
        datalog_rows=dl_rows,
        ra_only=frozenset(ra_rows - dl_rows),
        datalog_only=frozenset(dl_rows - ra_rows),
    )
