"""Datalog back end: fact extraction, query translation, evaluation.

The extensional database holds one ``event(C,E,T)`` fact per event, one
``attr_<name>(C,E,V)`` fact per attribute value, where a null value is the
constant ``null``, and the one fact ``null(null)``. Per case it holds one
``next(C,T1,T2)`` fact per pair of consecutive events, and one
``first(C,T)`` and one ``last(C,T)`` fact. Patterns translate to one
intensional predicate per subformula; a query adds one ``output`` rule,
which joins the base body with the root atom of every pattern that is not a
star (a star holds on every case).

Every negated atom is an EDB atom, so a translated program is semi-positive
by construction: START and END join ``first`` and ``last``, a negated
behaviour reference expands by De Morgan into one rule per conjunct, and an
equality between two attributes excludes ``null``. ``evaluate`` audits
safety and semi-positivity, then runs one semi-naive fixpoint with
hash-indexed joins; the same audit is exposed for static scans.

Constants are namespaced by sort (case id, event id, timestamp, attribute
value, null) so equalities across sorts never unify by accident; timestamps
are plain ints so the comparison built-ins apply to them alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

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
from .engine import DEFAULT_SOURCE, ColumnEquality, ColumnRef, ConstEquality, Plan, compile_plan, execute
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

    def __init__(self, pattern: CompiledPattern):
        self.pattern = pattern
        self.rules: list[Rule] = []
        self.counter = 0

    def fresh_pred(self) -> str:
        name = f"p{self.counter}"
        self.counter += 1
        return name

    def emit(self, head: Atom, *body: BodyItem) -> None:
        self.rules.append(Rule(head, tuple(body)))

    # -- identifier expressions -------------------------------------------

    def _conjunct_atoms(self, name: str) -> list[Atom]:
        atoms: list[Atom] = []
        for i, conj in enumerate(self.pattern.behaviour(name).conjuncts):
            if isinstance(conj, AttrEqConst):
                atoms.append(_attr_atom(conj.attr, value_const(str(conj.value))))
            else:
                shared = Var(f"V{i}")
                atoms += [
                    _attr_atom(conj.left, shared),
                    _attr_atom(conj.right, shared),
                    Atom("null", (shared,), negated=True),
                ]
        return atoms

    def idexpr_pred(self, expr: IdentifierExpr) -> str:
        if isinstance(expr, NotExpr):
            return self.negated_idexpr_pred(expr.inner)
        pred = self.fresh_pred()
        head, single = Atom(pred, (_T, _T, _C)), Atom("event", (_C, _E, _T))
        if isinstance(expr, Literal):
            self.emit(head, single, _attr_atom(self.pattern.attribute or "", value_const(expr.value)))
        elif isinstance(expr, BehaviourRef):
            self.emit(head, single, *self._conjunct_atoms(expr.name))
        elif isinstance(expr, OrExpr):
            ts, te = Var("Ts"), Var("Te")
            for sub in (expr.left, expr.right):
                self.emit(Atom(pred, (ts, te, _C)), Atom(self.idexpr_pred(sub), (ts, te, _C)))
        else:
            raise TypeError(f"not an identifier expression: {expr!r}")
        return pred

    def negated_idexpr_pred(self, expr: IdentifierExpr) -> str:
        if isinstance(expr, NotExpr):  # double negation
            inner = self.idexpr_pred(expr.inner)
            pred = self.fresh_pred()
            ts, te = Var("Ts"), Var("Te")
            self.emit(Atom(pred, (ts, te, _C)), Atom(inner, (ts, te, _C)))
            return pred
        pred = self.fresh_pred()
        head, single = Atom(pred, (_T, _T, _C)), Atom("event", (_C, _E, _T))
        if isinstance(expr, Literal):
            self.emit(head, single, _attr_atom(self.pattern.attribute or "", value_const(expr.value), True))
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
        elif isinstance(expr, OrExpr):
            left = self.negated_idexpr_pred(expr.left)
            right = self.negated_idexpr_pred(expr.right)
            ts, te = Var("Ts"), Var("Te")
            self.emit(
                Atom(pred, (ts, te, _C)),
                Atom(left, (ts, te, _C)),
                Atom(right, (ts, te, _C)),
            )
        else:
            raise TypeError(f"not an identifier expression: {expr!r}")
        return pred

    # -- pattern formulas ----------------------------------------------------

    def formula_pred(self, node: PatternFormula) -> str:
        ts, te, ts2, te2 = Var("Ts"), Var("Te"), Var("Ts2"), Var("Te2")
        if isinstance(node, Identifier):
            return self.idexpr_pred(node.expr)
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
    ctx = _Translation(pattern)
    ctx.formula_pred(pattern.formula)
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


def translate_query(query: Query, schema: tuple[str, ...], source: str = DEFAULT_SOURCE) -> DatalogProgram:
    """Translate a whole query: the output rule, then the pattern rules."""
    edb = edb_predicates(schema)
    plan: Plan = compile_plan(query, schema, source)

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

    ctx: _Translation | None = None
    pattern_atoms: list[Atom] = []
    for i, pattern in enumerate(plan.pattern_selections):
        # A star pattern holds on every case through the empty segment, which
        # no derived tuple witnesses, so its atom could never narrow the
        # output: it gets neither an atom nor rules.
        if matches_empty(pattern.formula):
            continue
        if ctx is None:
            ctx = _Translation(pattern)
        else:
            ctx.pattern = pattern
        root = ctx.formula_pred(pattern.formula)
        pattern_atoms.append(Atom(root, (Var(f"Ps{i}"), Var(f"Pe{i}"), _C)))

    head = Atom(OUTPUT_PRED, tuple(_column_term(ref, attr_vars) for ref in plan.projection))
    rules = [Rule(head, tuple([*base_body, *pattern_atoms]))]

    if ctx is not None:
        rules.extend(ctx.rules)
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
# Each rule is compiled once into a join plan: its positive atoms in body
# order, each probed through a hash index on the argument positions already
# bound when it is reached (constants, and variables bound by earlier atoms).
# Comparisons and negated atoms are tested at the first atom after which all
# of their variables are bound. Variables live in numbered slots of one list.

_Ref = tuple[bool, object]  # (True, slot number) or (False, constant)
_Check = tuple[str, object, object]  # (op, left ref, right ref) or ("!", pred, arg refs)
_Index = dict[tuple[Const, ...], list[tuple[Const, ...]]]


@dataclass(frozen=True)
class _Step:
    """One positive body atom of a join plan."""

    pred: str
    arity: int
    key_positions: tuple[int, ...]  # argument positions bound when the atom is reached
    key: tuple[_Ref, ...]  # the values at those positions
    binds: tuple[tuple[int, int], ...]  # (argument position, slot) for each newly bound variable
    repeats: tuple[tuple[int, int], ...]  # (position, earlier position) of a new variable seen twice
    checks: tuple[_Check, ...]  # the filters ready after this atom


@dataclass(frozen=True)
class _JoinPlan:
    head: tuple[_Ref, ...]
    checks: tuple[_Check, ...]  # filters that need no atom's bindings
    steps: tuple[_Step, ...]
    slots: int


def _item_vars(item: BodyItem) -> set[str]:
    if isinstance(item, Cmp):
        return _term_vars(item.left) | _term_vars(item.right)
    return {name for arg in item.args for name in _term_vars(arg)}


def _compile_rule(rule: Rule) -> _JoinPlan:
    slots: dict[str, int] = {}
    pending = [item for item in rule.body if not (isinstance(item, Atom) and not item.negated)]

    def ref(term: Term) -> _Ref:
        return (True, slots[term.name]) if isinstance(term, Var) else (False, term)

    def ready_checks() -> tuple[_Check, ...]:
        nonlocal pending
        ready = [item for item in pending if _item_vars(item) <= slots.keys()]
        pending = [item for item in pending if not _item_vars(item) <= slots.keys()]
        return tuple(
            (item.op, ref(item.left), ref(item.right)) if isinstance(item, Cmp)
            else ("!", item.pred, tuple(ref(a) for a in item.args))
            for item in ready
        )

    checks = ready_checks()
    steps: list[_Step] = []
    for item in rule.body:
        if not isinstance(item, Atom) or item.negated:
            continue
        key_positions: list[int] = []
        key: list[_Ref] = []
        first: dict[str, int] = {}
        repeats: list[tuple[int, int]] = []
        for i, arg in enumerate(item.args):
            if isinstance(arg, Var) and arg.name not in slots:
                if arg.name in first:
                    repeats.append((i, first[arg.name]))
                else:
                    first[arg.name] = i
            else:
                key_positions.append(i)
                key.append(ref(arg))
        binds = []
        for name, i in first.items():
            slots[name] = len(slots)
            binds.append((i, slots[name]))
        steps.append(
            _Step(item.pred, len(item.args), tuple(key_positions), tuple(key),
                  tuple(binds), tuple(repeats), ready_checks())
        )
    return _JoinPlan(tuple(ref(a) for a in rule.head.args), checks, tuple(steps), len(slots))


class _Relations:
    """Relations by predicate, each with hash indexes that are built on first
    use and extended as tuples are added."""

    def __init__(self, rels: FactSet):
        self.rels = rels
        self._indexes: dict[str, dict[tuple[tuple[int, ...], int], _Index]] = {}

    def index(self, pred: str, positions: tuple[int, ...], arity: int) -> _Index:
        """The tuples of arity `arity`, keyed by their values at `positions`."""
        by_shape = self._indexes.setdefault(pred, {})
        idx = by_shape.get((positions, arity))
        if idx is None:
            idx = by_shape[(positions, arity)] = {}
            _extend_index(idx, self.rels.get(pred, ()), positions, arity)
        return idx

    def add(self, pred: str, tuples: set[tuple[Const, ...]]) -> None:
        """Add tuples that are not yet in the relation."""
        self.rels[pred] |= tuples
        for (positions, arity), idx in self._indexes.get(pred, {}).items():
            _extend_index(idx, tuples, positions, arity)


def _extend_index(idx: _Index, tuples: Iterable[tuple[Const, ...]], positions: tuple[int, ...], arity: int) -> None:
    for tup in tuples:
        if len(tup) == arity:
            idx.setdefault(tuple(tup[i] for i in positions), []).append(tup)


def _checks_hold(checks: tuple[_Check, ...], env: list, rels: FactSet) -> bool:
    for op, left, right in checks:
        if op == "!":
            if tuple(env[x] if is_slot else x for is_slot, x in right) in rels.get(left, ()):
                return False
            continue
        a = env[left[1]] if left[0] else left[1]
        b = env[right[1]] if right[0] else right[1]
        if op == "=":
            if a != b:
                return False
        elif not (isinstance(a, int) and isinstance(b, int) and a < b):
            return False
    return True


def _eval_rule(
    plan: _JoinPlan,
    rels: _Relations,
    delta_step: int | None = None,
    delta: _Relations | None = None,
) -> set[tuple[Const, ...]]:
    """Head tuples of one rule; step `delta_step` reads `delta` in place of
    its relation."""
    out: set[tuple[Const, ...]] = set()
    env: list = [None] * plan.slots
    if not _checks_hold(plan.checks, env, rels.rels):
        return out
    steps = plan.steps
    indexes = [
        (delta if k == delta_step else rels).index(step.pred, step.key_positions, step.arity)
        for k, step in enumerate(steps)
    ]

    def walk(k: int) -> None:
        if k == len(steps):
            out.add(tuple(env[x] if is_slot else x for is_slot, x in plan.head))
            return
        step = steps[k]
        key = tuple(env[x] if is_slot else x for is_slot, x in step.key)
        for tup in indexes[k].get(key, ()):
            for i, slot in step.binds:
                env[slot] = tup[i]
            if step.repeats and any(tup[i] != tup[j] for i, j in step.repeats):
                continue
            if step.checks and not _checks_hold(step.checks, env, rels.rels):
                continue
            walk(k + 1)

    walk(0)
    return out


def evaluate(program: DatalogProgram, facts: FactSet) -> FactSet:
    """Least fixpoint by semi-naive iteration. The input FactSet is not
    mutated; the result holds EDB and derived relations together."""
    _check_program(program)
    rels: dict[str, set[tuple[Const, ...]]] = {p: set(ts) for p, ts in facts.items()}
    for rule in program.rules:
        rels.setdefault(rule.head.pred, set())
    for pred in program.edb_predicates:
        rels.setdefault(pred, set())
    store = _Relations(rels)
    # The audit guarantees that only EDB atoms are negated, so every negation
    # reads a relation that the fixpoint never grows.
    plans = [(r.head.pred, _compile_rule(r)) for r in program.rules]

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
                if not delta.get(step.pred):
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


def cross_check(query: Query, log: EventLog, source: str = DEFAULT_SOURCE) -> CheckReport:
    """Run both back ends and compare projections as sets. A mismatch is
    report data, not an error."""
    plan = compile_plan(query, log.schema, source)
    ra_rows = frozenset(execute(plan, log).rows)
    program = translate_query(query, log.schema, source)
    derived = evaluate(program, facts_from_log(log))
    dl_rows = frozenset(tuple(_untag(v) for v in t) for t in derived.get(OUTPUT_PRED, set()))
    return CheckReport(
        equal=ra_rows == dl_rows,
        ra_rows=ra_rows,
        datalog_rows=dl_rows,
        ra_only=frozenset(ra_rows - dl_rows),
        datalog_only=frozenset(dl_rows - ra_rows),
    )
