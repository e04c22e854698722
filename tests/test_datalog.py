import random
from collections import Counter, defaultdict
from functools import cache

import pytest

import sccq.datalog as datalog
from sccq.ast import (
    AttrEqAttr,
    AttrEqConst,
    BehaviourDef,
    BehaviourMatch,
    BehaviourRef,
    DirectlyFollows,
    End,
    Follows,
    Identifier,
    NotExpr,
    OrExpr,
    Query,
    SimpleMatch,
    Star,
    Start,
)
from sccq.datalog import (
    NULL,
    OUTPUT_PRED,
    Atom,
    CheckReport,
    DatalogProgram,
    Rule,
    Var,
    attribute_predicate,
    audit_program,
    cross_check,
    edb_predicates,
    evaluate,
    facts_from_log,
    facts_to_text,
    program_to_text,
    rule_to_text,
    translate_pattern,
    translate_query,
)
from sccq.engine import compile_plan, execute
from sccq.errors import MalformedCsv, StratificationViolation, UnsafeRule
from sccq.eventlog import Event, EventLog, event_sets, load_event_log, merge_cases
from sccq.gen import DEFAULT_VALUES, display_log, random_event_log, random_pair, random_pattern, random_query
from sccq.matcher import (
    _oracle_identifier,
    case_satisfies,
    compile_pattern,
    conjunct_test,
    oracle_satisfying_segments,
    satisfying_segments,
)
from sccq.parser import parse_pattern, parse_query, pretty_print, pretty_print_pattern


def simple(text, schema=("event_name",), attribute="event_name"):
    return compile_pattern(SimpleMatch(attribute, parse_pattern(text)), schema)


# --- the nested-loop evaluator, kept as the reference for the indexed one -----

def _resolve(term, subst):
    return subst[term.name] if isinstance(term, Var) else term


_BUILT_INS = ("<", "=")  # every other predicate names a relation


def _cmp_holds(item, subst):
    left, right = (_resolve(term, subst) for term in item.args)
    if item.pred == "=":
        return left == right
    return isinstance(left, int) and isinstance(right, int) and left < right


_UNBOUND = object()  # None is the null value, so it cannot mark an unbound variable


def _naive_eval_rule(rule, rels, delta_pos=None, delta=None):
    """Every positive atom scans its whole relation; filters run once all
    positive atoms are bound."""
    positives = [
        (i, item) for i, item in enumerate(rule.body) if not (item.negated or item.pred in _BUILT_INS)
    ]
    filters = [item for item in rule.body if item.negated or item.pred in _BUILT_INS]
    out = set()

    def walk(k, subst):
        if k == len(positives):
            for item in filters:
                if item.pred in _BUILT_INS:
                    if not _cmp_holds(item, subst):
                        return
                else:
                    ground = tuple(_resolve(a, subst) for a in item.args)
                    if ground in rels.get(item.pred, set()):
                        return
            out.add(tuple(_resolve(a, subst) for a in rule.head.args))
            return
        pos, atom = positives[k]
        source = delta if (delta_pos is not None and pos == delta_pos) else rels.get(atom.pred, set())
        for tup in source or ():
            if len(tup) != len(atom.args):
                continue
            bound = subst
            ok = True
            for arg, val in zip(atom.args, tup):
                if isinstance(arg, Var):
                    seen = bound.get(arg.name, _UNBOUND)
                    if seen is _UNBOUND:
                        if bound is subst:
                            bound = dict(subst)
                        bound[arg.name] = val
                    elif seen != val:
                        ok = False
                        break
                elif arg != val:
                    ok = False
                    break
            if ok:
                walk(k + 1, bound)

    walk(0, {})
    return out


def naive_evaluate(program, facts):
    """The same semi-naive fixpoint as evaluate, over the nested-loop join.
    Like evaluate, it runs a rule whose body can never hold."""
    assert [f for f in audit_program(program) if f[0] != "unsatisfiable"] == []
    rels = {p: set(ts) for p, ts in facts.items()}
    for rule in program.rules:
        rels.setdefault(rule.head.pred, set())
    for pred in program.edb_predicates:
        rels.setdefault(pred, set())

    delta = {}
    for rule in program.rules:
        fresh = _naive_eval_rule(rule, rels) - rels[rule.head.pred]
        if fresh:
            delta.setdefault(rule.head.pred, set()).update(fresh)
    while delta:
        for pred, tuples in delta.items():
            rels[pred] |= tuples
        next_delta = {}
        for rule in program.rules:
            for pos, item in enumerate(rule.body):
                if item.negated or item.pred in _BUILT_INS:
                    continue
                seeds = delta.get(item.pred)
                if not seeds:
                    continue
                fresh = _naive_eval_rule(rule, rels, delta_pos=pos, delta=seeds) - rels[rule.head.pred]
                fresh -= next_delta.get(rule.head.pred, set())
                if fresh:
                    next_delta.setdefault(rule.head.pred, set()).update(fresh)
        delta = next_delta
    return rels


_C, _E, _T = Var("C"), Var("E"), Var("T")
# q holds for every case; r copies q; s holds for every event but a case's
# first, through the negated EDB relation first.
_BASE = Rule(Atom("q", (_C,)), (Atom("event", (_C, _E, _T)),))
_DERIVED = Rule(Atom("r", (_C,)), (Atom("q", (_C,)),))
_NEGATES_BASE = Rule(
    Atom("s", (_C, _E)), (Atom("event", (_C, _E, _T)), Atom("first", (_C, _T), negated=True))
)

# A log on which ('a' -> 'b')* and 'a' ~> 'b' both hold.
ALTERNATING_CSV = "eid,cid,ts,event_name\n1,c,10,a\n2,c,20,b\n3,c,30,a\n4,c,40,b\n5,c,50,a\n"


def hand_built_programs(schema):
    """Valid programs that exercise the join beyond what translation emits:
    recursion through the successor relation, mutual recursion, rules listed
    before the rules they read, a variable repeated in one atom, constants
    in atoms and comparisons, a constant in a body's first atom and in a
    negated atom, a filter with no variable, a variable named like a string
    constant, and a predicate read with another arity than it is derived
    with. The last two programs derive reach, loop and later_a, then p and
    q."""
    edb = edb_predicates(schema)
    t2, t3, e2 = Var("T2"), Var("T3"), Var("E2")
    reach = (
        Rule(Atom("reach", (_C, _T, t2)), (Atom("next", (_C, _T, t2)),)),
        Rule(Atom("reach", (_C, _T, t3)), (Atom("reach", (_C, _T, t2)), Atom("next", (_C, t2, t3)))),
    )
    # odd and even read each other: pairs of events an odd or even number
    # of steps apart.
    parity = (
        Rule(Atom("odd", (_C, _T, t2)), (Atom("next", (_C, _T, t2)),)),
        Rule(Atom("even", (_C, _T, t3)), (Atom("odd", (_C, _T, t2)), Atom("next", (_C, t2, t3)))),
        Rule(Atom("odd", (_C, _T, t3)), (Atom("even", (_C, _T, t2)), Atom("next", (_C, t2, t3)))),
    )
    # Three levels, each rule listed before the rule it reads.
    levels = (
        Rule(Atom("top", (_C, _E)), (Atom("mid", (_C, _T)), Atom("event", (_C, _E, _T)))),
        Rule(Atom("mid", (_C, _T)), (Atom("low", (_C, _T)), Atom("last", (_C, _T), negated=True))),
        Rule(Atom("low", (_C, t2)), (Atom("next", (_C, _T, t2)),)),
    )
    # first's T2 is read only by the comparison, so first is joined, not
    # merely tested for a match.
    not_first = Rule(
        Atom("not_first", (_C, _E)), (Atom("event", (_C, _E, _T)), Atom("first", (_C, t2)), Atom("<", (t2, _T)))
    )
    # T2 repeats in one atom and nothing else reads it: no event follows
    # itself, while every event stays where it is.
    repeated = (
        Rule(Atom("self_next", (_C,)), (Atom("first", (_C, _T)), Atom("next", (_C, t2, t2)))),
        Rule(Atom("stay", (_C, _T, _T)), (Atom("event", (_C, _E, _T)),)),
        Rule(Atom("has_stay", (_C,)), (Atom("first", (_C, _T)), Atom("stay", (_C, t2, t2)))),
    )
    # Recursive rules with an atom that binds nothing later read: event's E2,
    # and reached(C,T), whose variables are all bound when it is reached.
    walks = (
        Rule(Atom("walk", (_C, _T)), (Atom("first", (_C, _T)),)),
        Rule(
            Atom("walk", (_C, t2)),
            (Atom("walk", (_C, _T)), Atom("next", (_C, _T, t2)), Atom("event", (_C, e2, t2))),
        ),
        Rule(Atom("reached", (_C, _T)), (Atom("first", (_C, _T)),)),
        Rule(Atom("reached", (_C, t2)), (Atom("next", (_C, _T, t2)), Atom("reached", (_C, _T)))),
    )
    # The first atom binds nothing but the constant: its index is keyed on
    # the constant's position alone.
    first_constant = (
        Rule(Atom("at_a", (_C, _T)), (Atom("attr_event_name", (_C, _E, "a")), Atom("event", (_C, _E, _T)))),
    )
    # Events that do not directly precede the one at 20: the negated atom
    # is probed on a constant besides its bound variables.
    negated_constant = (
        Rule(
            Atom("not_before_20", (_C, _T)),
            (Atom("event", (_C, _E, _T)), Atom("next", (_C, _T, 20), negated=True)),
        ),
    )
    # Variable a is not the constant "a": it ranges over every value of a
    # case that holds an 'a'.
    named_like_constant = (
        Rule(
            Atom("beside_a", (_C, Var("a"))),
            (Atom("attr_event_name", (_C, _E, "a")), Atom("attr_event_name", (_C, e2, Var("a")))),
        ),
    )
    # A relation is named by predicate and arity: p/1 holds every case, and
    # q reads p/2, which nothing derives, so q is empty.
    arity = (
        Rule(Atom("p", (_C,)), (Atom("event", (_C, _E, _T)),)),
        Rule(Atom("q", (_C,)), (Atom("p", (_C, _T)),)),
    )
    return [
        DatalogProgram((_BASE, _DERIVED), frozenset({"event"})),
        DatalogProgram((_BASE, _NEGATES_BASE), frozenset({"event", "first"})),
        DatalogProgram(tuple(translate_pattern(simple("('a' -> 'b')*"))), edb),
        DatalogProgram(tuple(translate_pattern(simple("'a' ~> 'b'"))), edb),
        DatalogProgram(tuple(translate_pattern(simple("START (ANY) -> NOT ('b') END"))), edb),
        DatalogProgram(parity, edb),
        DatalogProgram(levels, edb),
        DatalogProgram((not_first,), edb),
        DatalogProgram(repeated, edb),
        DatalogProgram(walks, edb),
        DatalogProgram(first_constant, edb),
        DatalogProgram(negated_constant, edb),
        DatalogProgram(named_like_constant, edb),
        DatalogProgram(reach, edb),
        DatalogProgram(
            (
                *reach,
                Rule(Atom("loop", (_C, _T)), (Atom("reach", (_C, _T, _T)),)),
                Rule(
                    Atom("later_a", (_C, e2)),
                    (
                        Atom("event", (_C, _E, _T)),
                        Atom("attr_event_name", (_C, _E, "a")),
                        Atom("reach", (_C, _T, t2)),
                        Atom("event", (_C, e2, t2)),
                        Atom("=", (_C, "c")),
                        Atom("<", (1, 2)),
                    ),
                ),
            ),
            edb,
        ),
        DatalogProgram(arity, edb),
    ]


def test_facts_from_log_counts(quotes_log):
    facts = facts_from_log(quotes_log)
    assert len(facts["event"]) == 7
    assert len(facts["attr_event_name"]) == 7
    assert len(facts["attr_status"]) == 7
    # one successor fact per pair of consecutive events: events - cases
    assert len(facts["next"]) == 7 - 2
    assert {f for f in facts["next"] if f[0] == "0001"} == {
        ("0001", 1675086864052, 1675160180724),
        ("0001", 1675160180724, 1675220315296),
    }


def test_fact_constants_are_the_log_values(quotes_log):
    # No sort tag: ids and attribute values are the log's strs, timestamps
    # its ints, and null is None.
    null_status = Event("e9", "0003", 5, (("event_name", "x"), ("status", None)))
    log = EventLog(quotes_log.schema, (*quotes_log.events, null_status))
    facts = facts_from_log(log)
    assert facts["event"] == {(ev.cid, ev.eid, ev.ts) for ev in log.events}
    assert all(isinstance(c, str) and isinstance(e, str) and isinstance(t, int) for c, e, t in facts["event"])
    for name in log.schema:
        values = facts[attribute_predicate(name)]
        assert values == {(ev.cid, ev.eid, dict(ev.attrs)[name]) for ev in log.events}
        assert all(v is None or isinstance(v, str) for _, _, v in values)
    assert ("0003", "e9", None) in facts["attr_status"] and facts["null"] == {(None,)} and NULL is None
    c, t1, t2 = next(iter(facts["next"]))
    assert isinstance(c, str) and isinstance(t1, int) and isinstance(t2, int) and t1 < t2


def test_null_values_produce_null_attr_facts():
    log = EventLog(("a", "b"), (Event("e1", "c", 1, (("a", None), ("b", "x"))),))
    facts = facts_from_log(log)
    c, e = "c", "e1"
    assert facts["attr_a"] == {(c, e, NULL)}
    assert facts["attr_b"] == {(c, e, "x")}
    assert facts["null"] == {(NULL,)}
    assert facts["first"] == facts["last"] == {(c, 1)}
    assert len(facts["event"]) == 1


def test_first_and_last_facts_per_case(quotes_log):
    facts = facts_from_log(quotes_log)
    sets = {es.cid: es.timestamps for es in event_sets(quotes_log)}
    assert facts["first"] == {(c, ts[0]) for c, ts in sets.items()}
    assert facts["last"] == {(c, ts[-1]) for c, ts in sets.items()}


def test_attribute_predicate_names():
    assert attribute_predicate("event_name") == "attr_event_name"
    assert attribute_predicate("event name") == "attr_event_name"
    with pytest.raises(MalformedCsv, match="collide"):
        facts_from_log(EventLog(("a b", "a_b"), ()))
    with pytest.raises(MalformedCsv, match="collide"):
        translate_query(parse_query("SELECT eid FROM eventlog"), ("a b", "a_b"))


def test_translate_literal_rule_shape():
    rules = translate_pattern(simple("'a'"))
    assert len(rules) == 1
    assert rule_to_text(rules[0]) == (
        'p0(T,T,C) :- event(C,E,T), attr_event_name(C,E,"a").'
    )


def test_translate_root_is_last_rule():
    rules = translate_pattern(simple("('a' -> 'b')*"))
    root = rules[-1].head.pred
    star_rules = [r for r in rules if r.head.pred == root]
    assert len(star_rules) == 2  # base plus recursive
    # the successor atom joins the inner match to the rest of the repetition
    assert rule_to_text(star_rules[1]) == (
        f"{root}(Ts,Te2,C) :- p2(Ts,Te,C), next(C,Te,Ts2), {root}(Ts2,Te2,C)."
    )
    # a single event has one timestamp column, its start and its end
    assert rule_to_text(rules[2]) == "p2(Ts,Ts2,C) :- p0(Ts,C), next(C,Ts,Ts2), p1(Ts2,C)."
    # directly-follows needs no helper and no negation
    assert [r.head.pred for r in rules] == ["p0", "p1", "p2", root, root]
    assert not any(isinstance(b, Atom) and b.negated for r in rules for b in r.body)


def test_translate_or_and_negation():
    or_rules = translate_pattern(simple("'a' OR 'b'"))
    root = or_rules[-1].head.pred
    assert sum(1 for r in or_rules if r.head.pred == root) == 2

    neg = translate_pattern(simple("NOT ('a')"))
    (rule,) = neg
    negated = [b for b in rule.body if isinstance(b, Atom) and b.negated]
    assert [a.pred for a in negated] == ["attr_event_name"]

    # De Morgan: NOT (a OR b) conjoins the two negated forms. Each side is
    # one body over the same event, so the two merge into one rule.
    demorgan = translate_pattern(simple("NOT ('a' OR 'b')"))
    assert [rule_to_text(r) for r in demorgan] == [
        'p0(T,T,C) :- event(C,E,T), !attr_event_name(C,E,"a"), !attr_event_name(C,E,"b").',
    ]

    # NOT flips the polarity of the rules it contains, and the sides of an
    # OR derive its predicate themselves: neither adds a predicate.
    assert translate_pattern(simple("NOT (NOT ('a'))")) == translate_pattern(simple("'a'"))
    assert [rule_to_text(r) for r in translate_pattern(simple("'a' OR NOT ('b')"))] == [
        'p0(T,T,C) :- event(C,E,T), attr_event_name(C,E,"a").',
        'p0(T,T,C) :- event(C,E,T), !attr_event_name(C,E,"b").',
    ]


def test_translate_negated_behaviour_ref_by_de_morgan(quotes_log):
    query = parse_query(
        "SELECT cid FROM eventlog WHERE BEHAVIOUR status = 'WIP' AND event_name = status AS w "
        "MATCHES (NOT (w))"
    )
    program = translate_query(query, quotes_log.schema)
    # one rule per failing conjunct; a = b fails where a differs from b or a
    # is null, and the value of event_name is V0 after its schema position
    assert program_to_text(program).splitlines()[1:] == [
        'p0(C) :- event(C,E,T), !attr_status(C,E,"WIP").',
        "p0(C) :- event(C,E,T), attr_event_name(C,E,V0), !attr_status(C,E,V0).",
        "p0(C) :- event(C,E,T), attr_event_name(C,E,V0), null(V0).",
    ]
    assert audit_program(program) == []

    positive = translate_query(
        parse_query("SELECT cid FROM eventlog WHERE BEHAVIOUR event_name = status AS w MATCHES (w)"),
        quotes_log.schema,
    )
    assert rule_to_text(positive.rules[-1]) == (
        "p0(C) :- event(C,E,T), attr_event_name(C,E,V0), attr_status(C,E,V0), !null(V0)."
    )


def test_negated_behaviour_with_nulls_agrees_with_relational():
    # every combination of null, equal and different values of a and b
    values = [(None, None), (None, "x"), ("x", None), ("x", "x"), ("x", "y")]
    log = EventLog(
        ("a", "b"),
        tuple(Event(f"e{i}", f"c{i}", 1, (("a", a), ("b", b))) for i, (a, b) in enumerate(values)),
    )
    for pattern in ("w", "NOT (w)"):
        query = parse_query(f"SELECT cid, a, b FROM eventlog WHERE BEHAVIOUR a = b AS w MATCHES ({pattern})")
        report = cross_check(query, log)
        assert report.equal, report.summary()
        holds = {("c3", "x", "x")}
        fails = {("c0", None, None), ("c1", None, "x"), ("c2", "x", None), ("c4", "x", "y")}
        assert report.datalog_rows == (holds if pattern == "w" else fails)
    rows = cross_check(parse_query("SELECT cid FROM eventlog WHERE a = b"), log)
    assert rows.equal and rows.datalog_rows == {("c3",)}

    # Two behaviours conjoined over one event: each conjunct's variable is
    # the value of its own attribute, so c need not equal a.
    values = [("x", "x", "x"), ("x", "x", "y"), ("x", "x", None), ("x", "y", "y"), (None, None, "x")]
    log = EventLog(
        ("a", "b", "c"),
        tuple(Event(f"e{i}", f"c{i}", 1, tuple(zip("abc", row))) for i, row in enumerate(values)),
    )
    query = parse_query(
        "SELECT cid FROM eventlog WHERE BEHAVIOUR a = b AS w, c = c AS v MATCHES (NOT (NOT (w) OR NOT (v)))"
    )
    report = cross_check(query, log)
    assert report.equal, report.summary()
    assert report.datalog_rows == {("c0",), ("c1",)}


def test_translate_query_output_rules(quotes_log):
    query = parse_query(
        "SELECT eid, status FROM eventlog WHERE ts = 5 AND cid = '0001' "
        "AND event_name MATCHES ('a' ~> 'b')"
    )
    program = translate_query(query, quotes_log.schema)
    out = [r for r in program.rules if r.head.pred == OUTPUT_PRED]
    assert len(out) == 1
    body = out[0].body
    # The filters on ts and cid hold no = item: the timestamp and the case
    # are their constants wherever the rule reads them.
    assert [b for b in body if b.pred in _BUILT_INS] == []
    assert body[0] == Atom("event", ("0001", Var("E"), 5))
    assert any(isinstance(b, Atom) and b.pred == "attr_status" for b in body)
    # pattern atom joins on the case
    pattern_atom = [b for b in body if isinstance(b, Atom) and b.pred.startswith("p")][-1]
    assert pattern_atom.args[-1] == "0001"
    # the pattern rules close the program; ~> uses no helper, and reads each
    # single-event operand at its one timestamp
    assert [r.head.pred for r in program.rules] == [OUTPUT_PRED, "p0", "p1", "p2"]
    assert rule_to_text(program.rules[-1]) == "p2(C) :- p0(Ts,C), p1(Ts2,C), Ts < Ts2."


def test_translate_query_emits_only_used_helpers(quotes_log):
    # No query needs a helper: START and END join the EDB relations first
    # and last, so a program holds the output rule and its pattern rules.
    def text(query):
        return program_to_text(translate_query(parse_query(query), quotes_log.schema)).splitlines()

    assert text("SELECT cid FROM eventlog") == ["output(C) :- event(C,E,T)."]
    assert text("SELECT cid FROM eventlog WHERE event_name MATCHES (START (ANY) END)")[1:] == [
        "p0(C) :- event(C,E,T), first(C,T), last(C,T).",
    ]


def test_translate_query_drops_star_patterns(quotes_log):
    # A star pattern holds on every case, so it adds no atom and no rule.
    query = parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (('a' ~> 'b')*)")
    assert program_to_text(translate_query(query, quotes_log.schema)) == "output(C) :- event(C,E,T)."
    mixed = parse_query(
        "SELECT cid FROM eventlog WHERE event_name MATCHES (START ('a')*) "
        "AND status MATCHES ('x' -> 'y') AND event_name MATCHES ('b'*)"
    )
    assert program_to_text(translate_query(mixed, quotes_log.schema)).splitlines() == [
        "output(C) :- event(C,E,T), p2(C).",
        'p0(T,C) :- event(C,E,T), attr_status(C,E,"x").',
        'p1(T,C) :- event(C,E,T), attr_status(C,E,"y").',
        "p2(C) :- p0(Ts,C), next(C,Ts,Ts2), p1(Ts2,C).",
    ]


def test_many_star_conditions_give_one_output_rule(quotes_log):
    stars = " AND ".join(f"event_name MATCHES ('x{i}'*)" for i in range(12))
    query = parse_query(f"SELECT cid FROM eventlog WHERE {stars}")
    program = translate_query(query, quotes_log.schema)
    assert [r.head.pred for r in program.rules] == [OUTPUT_PRED]
    report = cross_check(query, quotes_log)
    assert report.equal and report.datalog_rows == {("0001",), ("0002",)}


def test_edb_predicates(quotes_log):
    assert edb_predicates(quotes_log.schema) == frozenset(
        {"event", "next", "first", "last", "null", "attr_event_name", "attr_status"}
    )


def test_audit_flags_unsafe_rules():
    edb = frozenset({"event"})
    head_unbound = DatalogProgram(
        (Rule(Atom("p", (Var("X"),)), (Atom("event", (Var("C"), Var("E"), Var("T"))),)),),
        edb,
    )
    findings = audit_program(head_unbound)
    assert findings and findings[0][0] == "unsafe" and "X" in findings[0][1]
    with pytest.raises(UnsafeRule, match="X"):
        evaluate(head_unbound, {"event": set()})

    neg_unbound = DatalogProgram(
        (
            Rule(
                Atom("p", (Var("C"),)),
                (
                    Atom("event", (Var("C"), Var("E"), Var("T"))),
                    Atom("event", (Var("C"), Var("E2"), Var("Z")), negated=True),
                ),
            ),
        ),
        edb,
    )
    kinds = {k for k, _ in audit_program(neg_unbound)}
    assert kinds == {"unsafe"}

    cmp_unbound = DatalogProgram(
        (
            Rule(
                Atom("p", (Var("C"),)),
                (Atom("event", (Var("C"), Var("E"), Var("T"))), Atom("<", (Var("T"), Var("Q")))),
            ),
        ),
        edb,
    )
    assert audit_program(cmp_unbound)[0][0] == "unsafe"

    # One rule with unbound variables in its head, in a negated atom whose
    # predicate is not EDB, and in a comparison: the head is checked first,
    # then the body in order, and each item's variables in name order.
    x, w, y, z = Var("X"), Var("W"), Var("Y"), Var("Z")
    rule = Rule(
        Atom("p", (_C, x, w)),
        (Atom("event", (_C, _E, _T)), Atom("q", (_C, y), negated=True), Atom("<", (_T, z))),
    )
    assert audit_program(DatalogProgram((rule,), frozenset({"event"}))) == [
        ("unsafe", "variable W in the head of rule for 'p' is not bound by a positive body atom"),
        ("unsafe", "variable X in the head of rule for 'p' is not bound by a positive body atom"),
        ("unsafe", "variable Y in negated atom q of rule for 'p' is not bound by a positive body atom"),
        ("stratification", "negated predicate 'q' in rule for 'p' is not EDB"),
        ("unsafe", "variable Z in built-in < of rule for 'p' is not bound by a positive body atom"),
    ]


def test_audit_flags_malformed_built_ins():
    # < and = are built-ins of two terms, never negated. Any other shape is
    # unsafe, so evaluate raises before it compiles a join.
    event = Atom("event", (_C, _E, _T))
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", "x"),)),))
    for item in (Atom("<", (_T,)), Atom("=", (_E, "e1"), negated=True)):
        program = DatalogProgram((Rule(Atom("p", (_C,)), (event, item)),), edb_predicates(log.schema))
        message = f"built-in {item.pred} of rule for 'p' must hold two terms and not be negated"
        assert audit_program(program) == [("unsafe", message)]
        with pytest.raises(UnsafeRule, match=message):
            evaluate(program, facts_from_log(log))


def test_unknown_comparison_is_a_relation():
    # Only < and = are built-ins, so > names a relation that no rule
    # derives: the rule never holds, where a > read as < would derive (a, b).
    t1, t2, e1, e2 = Var("T1"), Var("T2"), Var("E1"), Var("E2")
    events = (Atom("event", (_C, e1, t1)), Atom("event", (_C, e2, t2)))
    log = EventLog(("a",), (Event("a", "c", 1, (("a", "x"),)), Event("b", "c", 2, (("a", "x"),))))
    facts = facts_from_log(log)
    later = DatalogProgram((Rule(Atom("later", (e1, e2)), (*events, Atom(">", (t1, t2)))),), edb_predicates(log.schema))
    assert program_to_text(later) == "later(E1,E2) :- event(C,E1,T1), event(C,E2,T2), >(T1,T2)."
    assert audit_program(later) == [("unsatisfiable", "rule for 'later' reads '>', which no rule derives")]
    derived = evaluate(later, facts)
    assert derived["later"] == set() and derived == naive_evaluate(later, facts)
    # T2 < T1 says what > meant.
    swapped = DatalogProgram((Rule(Atom("later", (e1, e2)), (*events, Atom("<", (t2, t1)))),), later.edb_predicates)
    assert evaluate(swapped, facts)["later"] == {("b", "a")}


def test_audit_flags_negation_strata():
    edb = frozenset({"event", "first"})
    c, e, t = _C, _E, _T
    base, derived = _BASE, _DERIVED
    # only EDB relations may be negated: r is IDB, and so is q, though its
    # rule reads the EDB alone
    for negated in ("r", "q"):
        bad = Rule(Atom("s", (c,)), (Atom("event", (c, e, t)), Atom(negated, (c,), negated=True)))
        findings = audit_program(DatalogProgram((base, derived, bad), edb))
        assert findings == [
            ("stratification", f"negated predicate {negated!r} in rule for 's' is not EDB")
        ]
        with pytest.raises(StratificationViolation, match="is not EDB"):
            evaluate(DatalogProgram((base, derived, bad), edb), {"event": set()})

    undefined = DatalogProgram(
        (Rule(Atom("s", (c,)), (Atom("event", (c, e, t)), Atom("ghost", (c,), negated=True))),),
        edb,
    )
    assert audit_program(undefined)[0][0] == "stratification"
    ok = DatalogProgram((base, _NEGATES_BASE), edb)
    assert audit_program(ok) == []


def test_evaluate_pattern_rules_match_generator():
    log = load_event_log(ALTERNATING_CSV)
    pattern = simple("('a' -> 'b')*")
    rules = translate_pattern(pattern)
    program = DatalogProgram(tuple(rules), edb_predicates(log.schema))
    derived = evaluate(program, facts_from_log(log))
    root = rules[-1].head.pred
    got = {(s, e) for s, e, _ in derived[root]}
    es = event_sets(log)[0]
    expected = {
        (s.start, s.end) for s in satisfying_segments(pattern, es).segments if not s.is_empty
    }
    assert got == expected == {(10, 20), (30, 40), (10, 40)}


def test_pattern_rules_agree_with_matcher_on_random_logs():
    rng = random.Random(77)
    for _ in range(40):
        log = random_event_log(rng, cases=2, max_events=5)
        pattern = compile_pattern(
            SimpleMatch("event_name", random_pattern(rng, depth=2)), log.schema
        )
        rules = translate_pattern(pattern)
        program = DatalogProgram(tuple(rules), edb_predicates(log.schema))
        derived = evaluate(program, facts_from_log(log))
        root = rules[-1].head.pred
        for es in event_sets(log):
            expected = {
                (s.start, s.end)
                for s in satisfying_segments(pattern, es).segments
                if not s.is_empty
            }
            got = {(s, e) for s, e, c in derived[root] if c == es.cid}
            assert got == expected


def test_evaluate_monotone_for_negation_free_programs():
    # adding facts can only add derived tuples when no rule negates anything
    small = load_event_log("eid,cid,ts,event_name\n1,c,10,a\n2,c,20,b\n")
    big = load_event_log(
        "eid,cid,ts,event_name\n1,c,10,a\n2,c,20,b\n3,c,30,a\n4,c,40,b\n"
    )
    pattern = simple("'a' ~> 'b'")
    rules = translate_pattern(pattern)
    assert not any(
        isinstance(item, Atom) and item.negated for rule in rules for item in rule.body
    )
    program = DatalogProgram(tuple(rules), edb_predicates(small.schema))
    lo_facts = facts_from_log(small)
    # the larger fact set must contain the smaller one: last of the longer
    # log is not a superset of last of the shorter
    hi_facts = {pred: tuples | lo_facts[pred] for pred, tuples in facts_from_log(big).items()}
    lo = evaluate(program, lo_facts)
    hi = evaluate(program, hi_facts)
    for pred, tuples in lo.items():
        assert tuples <= hi[pred]


def test_evaluate_start_and_end_relations(quotes_log):
    sets = {es.cid: es.timestamps for es in event_sets(quotes_log)}

    def derived(pattern):
        query = parse_query(f"SELECT cid FROM eventlog WHERE event_name MATCHES ({pattern})")
        return evaluate(translate_query(query, quotes_log.schema), facts_from_log(quotes_log))

    # p0 is START (ANY): the first event of each case; p1 is ANY END, the
    # last one; every case has two events, so p2 keeps every case
    ends = derived("START (ANY) ~> ANY END")
    assert ends["p0"] == {(ts[0], c) for c, ts in sets.items()}
    assert ends["p1"] == {(ts[-1], c) for c, ts in sets.items()}
    assert ends["p2"] == {(c,) for c in sets}
    # p0 is the case whose one event both starts and ends it: none here
    both = derived("START (ANY) END")
    assert both["p0"] == both[OUTPUT_PRED] == set()


def test_evaluate_does_not_mutate_input(quotes_log):
    facts = facts_from_log(quotes_log)
    snapshot = {k: set(v) for k, v in facts.items()}
    program = translate_query(
        parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (ANY -> ANY)"),
        quotes_log.schema,
    )
    derived = evaluate(program, facts)
    assert facts == snapshot
    assert derived["event"] == facts["event"]


def test_translated_programs_define_no_edb_predicate():
    # every rule derives an IDB predicate; the EDB comes from the log alone
    rng = random.Random(83)
    for _ in range(200):
        query, log = random_pair(rng)
        program = translate_query(query, log.schema)
        assert program.edb_predicates == edb_predicates(log.schema)
        assert set(facts_from_log(log)) == program.edb_predicates
        for rule in program.rules:
            assert rule.head.pred not in program.edb_predicates, rule_to_text(rule)
            atoms = [b.pred for b in rule.body if isinstance(b, Atom)]
            assert "segment" not in atoms and "hasBetween" not in atoms, rule_to_text(rule)
            negated = {b.pred for b in rule.body if isinstance(b, Atom) and b.negated}
            assert negated <= program.edb_predicates, rule_to_text(rule)


def test_cross_check_fixtures(quotes_log):
    queries = [
        "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')",
        "SELECT eid, status FROM eventlog WHERE status = 'WIP'",
        "SELECT cid FROM eventlog WHERE BEHAVIOUR status = 'WIP' AS w MATCHES (w -> w)",
        "SELECT event_name FROM eventlog",
        "SELECT cid FROM eventlog WHERE event_name MATCHES (('x' ~> 'y')*)",
    ]
    for text in queries:
        report = cross_check(parse_query(text), quotes_log)
        assert report.equal, f"{text}: {report.summary()}"
    report = cross_check(parse_query(queries[0]), quotes_log)
    assert report.ra_rows == frozenset({("0002",)})
    assert report.summary() == "EQUAL (1 distinct tuples)"


def test_cross_check_agrees_with_execute(quotes_log):
    text = "SELECT status FROM eventlog WHERE cid = '0002'"
    query = parse_query(text)
    report = cross_check(query, quotes_log)
    table = execute(compile_plan(query, quotes_log.schema), quotes_log)
    assert report.equal
    assert report.datalog_rows == frozenset(table.rows)


def test_cross_check_compiles_the_plan_once(monkeypatch, quotes_log):
    calls = []
    original = datalog.compile_plan

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(datalog, "compile_plan", counted)
    query = parse_query(
        "SELECT cid FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')"
    )
    assert cross_check(query, quotes_log).equal
    assert len(calls) == 1


def test_cross_check_projects_null():
    # a null attribute binds the null constant, which projects as None
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", None),)), Event("e2", "c", 2, (("a", "x"),))))
    report = cross_check(parse_query("SELECT a FROM eventlog"), log)
    assert report.equal and report.summary() == "EQUAL (2 distinct tuples)"
    assert report.datalog_rows == frozenset({(None,), ("x",)})
    alone = cross_check(parse_query("SELECT a FROM eventlog"), EventLog(("a",), log.events[:1]))
    assert alone.equal and alone.datalog_rows == frozenset({(None,)})


def test_equality_across_column_kinds_never_holds():
    # Each column kind is its own sort, so eid = cid never holds, even where
    # both read "x", and a timestamp never equals a quoted value, even "1" at
    # 1: the query translates to no rule, as the relational side selects no
    # event. An equality within one sort selects the event.
    log = load_event_log("eid,cid,ts,a\nx,x,1,x\n")
    for condition in ("eid = cid", "eid = a", "cid = a", "ts = 'x'", "TS = '1'"):
        query = parse_query(f"SELECT eid FROM eventlog WHERE {condition}")
        assert translate_query(query, log.schema).rules == (), condition
        assert cross_check(query, log).summary() == "EQUAL (0 distinct tuples)", condition
    for condition in ("a = a", "eid = eid", "ts = 1"):
        report = cross_check(parse_query(f"SELECT eid FROM eventlog WHERE {condition}"), log)
        assert report.equal and report.datalog_rows == {("x",)}, condition


def test_cross_check_random_corpus():
    rng = random.Random(81)
    for _ in range(100):
        query, log = random_pair(rng)
        report = cross_check(query, log)
        assert report.equal, report.summary()


def null_bearing_pair(rng):
    """A null-bearing log and a random_query on it. Some pairs gain a
    BEHAVIOUR condition with an a = b conjunct, sometimes under NOT, some a
    further MATCHES condition on a literal pattern, and some an a = b row
    filter. a and b may name one attribute: a = a fails only on nulls."""
    values = ("a", "b", "c")[: rng.randint(2, 3)]
    log = random_event_log(rng, cases=rng.randint(1, 3), max_events=6, values=values, allow_null=True)
    query = random_query(rng, log)
    extra = []
    if rng.random() < 0.6:
        conjuncts = (AttrEqAttr(rng.choice(log.schema), rng.choice(log.schema)),)
        if rng.random() < 0.3:
            conjuncts += (AttrEqConst("resource", rng.choice(values)),)
        holds, fails = Identifier(BehaviourRef("q")), Identifier(NotExpr(BehaviourRef("q")))
        pattern = rng.choice(
            [random_pattern(rng, behaviour_names=("q",)), fails, Follows(holds, fails), Follows(fails, holds)]
        )
        extra.append(BehaviourMatch((BehaviourDef("q", conjuncts),), pattern))
    if rng.random() < 0.4:
        extra.append(SimpleMatch(rng.choice(log.schema), random_pattern(rng, values=values)))
    if rng.random() < 0.3:
        extra.append(AttrEqAttr(rng.choice(log.schema), rng.choice(log.schema)))
    return Query(query.projection, query.source, query.conditions + tuple(extra)), log


def test_cross_check_null_bearing_corpus():
    rng = random.Random(85)
    mismatches, empty, nonempty, null_rows, multi_match, negated_eq = [], 0, 0, 0, 0, 0
    for i in range(300):
        query, log = null_bearing_pair(rng)
        assert audit_program(translate_query(query, log.schema)) == [], pretty_print(query)
        report = cross_check(query, log)
        if not report.equal:
            mismatches.append(f"pair {i}: {report.summary()}  {pretty_print(query)}")
        empty += not report.ra_rows
        nonempty += bool(report.ra_rows)
        null_rows += any(None in row for row in report.ra_rows)
        matches = [c for c in query.conditions if isinstance(c, (SimpleMatch, BehaviourMatch))]
        multi_match += len(matches) > 1
        negated_eq += any(
            isinstance(c, BehaviourMatch) and "NOT" in pretty_print_pattern(c.pattern) for c in matches
        )
    assert mismatches == []
    # the corpus reaches what it is for: nulls in the output, several MATCHES
    # conditions, negated behaviours, and both empty and non-empty results
    assert min(empty, nonempty, null_rows, multi_match, negated_eq) > 0, (
        empty, nonempty, null_rows, multi_match, negated_eq
    )


def seeded(pair, seed, size):
    """The first `size` pairs that `pair` draws from one generator seeded
    with `seed`."""
    rng = random.Random(seed)
    return tuple(pair(rng) for _ in range(size))


def test_conjunct_test_agrees_with_oracle():
    # Row filters, behaviour conjuncts and literals all compile through
    # conjunct_test, so only the oracle's own reading can check its null rule.
    logs = [log for _, log in seeded(null_bearing_pair, 85, 100)]
    outcomes = Counter()
    for log in logs:
        values = sorted({v for e in log.events for _, v in e.attrs if v is not None})
        conjuncts = [AttrEqConst(a, v) for a in log.schema for v in (*values, 5)]
        conjuncts += [AttrEqAttr(a, b) for a in log.schema for b in log.schema]
        for conj in conjuncts:
            test = conjunct_test(conj, log.schema.index)
            match = BehaviourMatch((BehaviourDef("q", (conj,)),), Identifier(BehaviourRef("q")))
            pattern = compile_pattern(match, log.schema)
            for event in log.events:
                expected = _oracle_identifier(BehaviourRef("q"), event, pattern)
                assert test(event) == expected, (conj, event)
                outcomes[expected, None in dict(event.attrs).values()] += 1
    # Both outcomes, on events with and without a null.
    assert len(outcomes) == 4, outcomes


def null_equality_pair(rng):
    """A log of two or three cases of up to six events, each of whose two
    attributes is null with probability 0.5 and else one of two values, and
    a query on a failed a = b of the two: NOT (q), NOT (q) ~> X or
    X -> NOT (q), X a random pattern of depth one over q."""
    values, schema = DEFAULT_VALUES[:2], ("event_name", "resource")
    events = []
    for c in range(rng.randint(2, 3)):
        for i in range(rng.randint(1, 6)):
            attrs = tuple((name, None if rng.random() < 0.5 else rng.choice(values)) for name in schema)
            events.append(Event(f"e{len(events)}", f"c{c}", 10 * (i + 1), attrs))
    fails = Identifier(NotExpr(BehaviourRef("q")))
    other = random_pattern(rng, depth=1, behaviour_names=("q",))
    pattern = rng.choice([fails, Follows(fails, other), DirectlyFollows(other, fails)])
    match = BehaviourMatch((BehaviourDef("q", (AttrEqAttr(*rng.sample(schema, 2)),)),), pattern)
    return Query(("cid",), "eventlog", (match,)), EventLog(schema, tuple(events))


def test_cross_check_null_equality_corpus():
    # a = b fails on an event where both are null, through its null body
    # alone. Half the values are null, so about a quarter of the events are
    # such an event.
    mismatches, both_null = [], 0
    for i, (query, log) in enumerate(seeded(null_equality_pair, 32, 150)):
        report = cross_check(query, log)
        if not report.equal:
            mismatches.append(f"pair {i}: {report.summary()}  {pretty_print(query)}")
        both_null += any(all(value is None for _, value in event.attrs) for event in log.events)
    assert mismatches == []
    assert both_null >= 100, both_null


def nested_identifier_pair(rng, behaviour):
    """A null-bearing log of three cases of up to eight events, and a query
    with one MATCHES condition whose identifier expressions nest OR and NOT
    up to three deep: over literals, or with `behaviour` set, over two
    behaviours of one or two conjuncts each."""
    values = DEFAULT_VALUES[:3]
    log = random_event_log(rng, cases=3, max_events=8, values=values, allow_null=True)
    if behaviour:
        defs = tuple(
            BehaviourDef(name, tuple(
                AttrEqConst(rng.choice(log.schema), rng.choice(values)) if rng.random() < 0.7
                else AttrEqAttr(rng.choice(log.schema), rng.choice(log.schema))
                for _ in range(rng.randint(1, 2))
            ))
            for name in ("x", "y")
        )
        match = BehaviourMatch(defs, random_pattern(rng, behaviour_names=("x", "y"), identifier_depth=3))
    else:
        match = SimpleMatch(rng.choice(log.schema), random_pattern(rng, values=values, identifier_depth=3))
    return Query(("cid",), "eventlog", (match,)), log


@cache
def nested_identifier_corpus():
    rng = random.Random(4242)
    return tuple(nested_identifier_pair(rng, behaviour=i % 2 == 1) for i in range(400))


def long_case_pair(rng):
    """A null-bearing log of two cases of up to 150 events, and a query with
    one MATCHES condition on a random pattern of depth three."""
    values = DEFAULT_VALUES[:3]
    log = random_event_log(rng, cases=2, max_events=150, values=values, allow_null=True)
    pattern = random_pattern(rng, depth=3, values=values)
    return Query(("cid",), "eventlog", (SimpleMatch("event_name", pattern),)), log


def _identifier_exprs(formula):
    if isinstance(formula, Identifier):
        yield formula.expr
    for part in ("left", "right", "inner"):
        if hasattr(formula, part):
            yield from _identifier_exprs(getattr(formula, part))


def _nests_under_not(expr, under_not=False):
    """Whether an OR or a NOT sits beneath a NOT in the expression."""
    if isinstance(expr, NotExpr):
        return under_not or _nests_under_not(expr.inner, True)
    if isinstance(expr, OrExpr):
        return under_not or any(_nests_under_not(side, under_not) for side in (expr.left, expr.right))
    return False


def test_nested_identifier_corpus():
    mismatches, nested = [], 0
    for i, (query, log) in enumerate(nested_identifier_corpus()):
        (match,) = query.conditions
        program = translate_query(query, log.schema)
        assert audit_program(program) == [], pretty_print(query)
        facts = facts_from_log(log)
        assert evaluate(program, facts) == naive_evaluate(program, facts), pretty_print(query)
        report = cross_check(query, log)
        if not report.equal:
            mismatches.append(f"pair {i}: {report.summary()}  {pretty_print(query)}")
        pattern = compile_pattern(match, log.schema)
        for es in event_sets(log):
            assert satisfying_segments(pattern, es) == oracle_satisfying_segments(pattern, es), pretty_print(query)
        nested += any(_nests_under_not(expr) for expr in _identifier_exprs(match.pattern))
    assert mismatches == []
    # The corpus reaches the shapes it is for: NOT (NOT x), NOT (x OR y).
    assert nested >= 50, nested


def test_cross_check_long_case_corpus():
    # 300 pairs of cases of up to 150 events: `~>` joins one endpoint of each
    # operand, so no pair needs all pairs of its operands' segments.
    mismatches = []
    for i, (query, log) in enumerate(seeded(long_case_pair, 2026, 300)):
        report = cross_check(query, log)
        if not report.equal:
            mismatches.append(f"pair {i}: {report.summary()}  {pretty_print(query)}")
    assert mismatches == []


def run_pair(rng):
    """A log of two or three cases of 5 to 25 events, whose event_name
    repeats the previous one with probability 0.7 over two or three values,
    and a query with one MATCHES condition on a star read at both ends:
    X -> Y* -> Z, START (Y*) -> Z, X -> (Y*) END or START (Y*) END."""
    values = DEFAULT_VALUES[: rng.randint(2, 3)]
    events = []
    for c in range(rng.randint(2, 3)):
        name = rng.choice(values)
        for i in range(rng.randint(5, 25)):
            if i and rng.random() >= 0.7:
                name = rng.choice([v for v in values if v != name])
            events.append(Event(f"e{len(events)}", f"c{c}", 10 * (i + 1), (("event_name", name),)))
    x, y, z = (random_pattern(rng, depth=1, values=values) for _ in range(3))
    pattern = rng.choice([
        DirectlyFollows(DirectlyFollows(x, Star(y)), z),
        DirectlyFollows(Start(Star(y)), z),
        DirectlyFollows(x, End(Star(y))),
        End(Start(Star(y))),
    ])
    return Query(("cid",), "eventlog", (SimpleMatch("event_name", pattern),)), EventLog(("event_name",), tuple(events))


def test_cross_check_run_corpus():
    # Runs of equal values give a star read at both ends segments of many
    # inner segments, each a semi-naive round deeper than the one before.
    mismatches, recursive = [], 0
    corpus = seeded(run_pair, 31, 150)
    for i, (query, log) in enumerate(corpus):
        report = cross_check(query, log)
        if not report.equal:
            mismatches.append(f"pair {i}: {report.summary()}  {pretty_print(query)}")
        recursive += bool(_recursive_rules(translate_query(query, log.schema)))
    assert mismatches == []
    assert recursive >= len(corpus) / 10, recursive


def test_listing_agrees_with_datalog_on_run_corpus():
    # The listing of each case is the rows of its case in the root relation
    # of translate_pattern, a star read at both ends recursing through runs.
    mismatches, listed = [], 0
    for i, (query, log) in enumerate(seeded(run_pair, 31, 150)):
        (match,) = query.conditions
        pattern = compile_pattern(match, log.schema)
        rules = translate_pattern(pattern)
        derived = evaluate(DatalogProgram(tuple(rules), edb_predicates(log.schema)), facts_from_log(log))
        root = derived[rules[-1].head.pred] if rules else set()
        for es in event_sets(log):
            pairs = satisfying_segments(pattern, es).pairs
            if sorted(pairs) != sorted((s, e) for s, e, c in root if c == es.cid):
                mismatches.append(f"pair {i}, case {es.cid}: {pretty_print(query)}")
            listed += len(pairs)
    assert mismatches == []
    assert listed >= 800, listed


def _mirror(node):
    """The pattern read backwards: the operands of -> and ~> swap, and START
    and END trade places; stars and single events stay."""
    if isinstance(node, (Follows, DirectlyFollows)):
        return type(node)(_mirror(node.right), _mirror(node.left))
    if isinstance(node, (Start, End)):
        return (End if isinstance(node, Start) else Start)(_mirror(node.inner))
    if isinstance(node, Star):
        return Star(_mirror(node.inner))
    return node


def _listers(match, log):
    """Per case id: whether case_satisfies selects the case, its NFA listing
    and the rows of its case in the translate_pattern root, both sorted."""
    pattern = compile_pattern(match, log.schema)
    rules = translate_pattern(pattern)
    derived = evaluate(DatalogProgram(tuple(rules), edb_predicates(log.schema)), facts_from_log(log))
    root = derived[rules[-1].head.pred] if rules else set()
    return {
        es.cid: (
            case_satisfies(pattern, es),
            sorted(satisfying_segments(pattern, es).pairs),
            sorted((s, e) for s, e, c in root if c == es.cid),
        )
        for es in event_sets(log)
    }


def test_mirror_law_on_both_listers():
    # Read backwards, an event at t is at M - t, M being the log's largest
    # timestamp, and the pattern is its mirror. A segment (s, e) maps to
    # (M - e, M - s): each lister's listing maps onto its own listing of the
    # mirror, and a case is selected as its mirror is. No oracle is needed,
    # so the law holds each back end to itself on cases of up to 150 events;
    # the two listers must also agree.
    corpus = seeded(run_pair, 31, 150) + dict(translation_corpora())["long-case"]
    violations, listed, selected = [], 0, 0
    for i, (query, log) in enumerate(corpus):
        (match,) = query.conditions
        m = max(e.ts for e in log.events)
        mirrored_log = EventLog(log.schema, tuple(Event(e.eid, e.cid, m - e.ts, e.attrs) for e in log.events))
        backward = _listers(SimpleMatch(match.attribute, _mirror(match.pattern)), mirrored_log)
        for cid, (satisfied, nfa, root) in _listers(match, log).items():
            mirrored = sorted((m - e, m - s) for s, e in nfa), sorted((m - e, m - s) for s, e in root)
            if (satisfied, *mirrored) != backward[cid] or nfa != root:
                violations.append(f"pair {i}, case {cid}: {pretty_print(query)}")
            listed += len(nfa)
            selected += satisfied
    assert violations == []
    assert listed >= 30000 and selected >= 200, (listed, selected)


def _recursive_rules(program):
    """Rules whose body reads their own head predicate."""
    return [r for r in program.rules if any(isinstance(b, Atom) and b.pred == r.head.pred for b in r.body)]


def test_translation_cost_pins(monkeypatch):
    # The output reads only the case of a pattern, and `~>` reads its left
    # operand at the end and its right one at the start, so the nested query
    # joins single timestamps: its bindings grow with n^2, not n^4.
    bindings = [0]
    real = datalog._join

    def counted(rows, index, key):
        for row in real(rows, index, key):
            bindings[0] += 1
            yield row

    monkeypatch.setattr(datalog, "_join", counted)
    log = merge_cases(display_log(random.Random(5), cases=12, max_events=12))
    nested = parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES ((ANY ~> ANY) ~> (ANY ~> ANY))")
    growth = []
    for n in (40, 80):
        bindings[0] = 0
        assert cross_check(nested, EventLog(log.schema, log.events[:n])).equal
        growth.append(bindings[0])
    assert growth[1] < 8 * growth[0], growth
    # Equal subformulas read at equal endpoints share one predicate, and ANY
    # is one relation whichever endpoints its readers read.
    assert len(translate_query(nested, log.schema).rules) <= 5

    # A star read at one end is its inner predicate; read at both, it recurses.
    def recursive(pattern):
        query = parse_query(f"SELECT cid FROM eventlog WHERE event_name MATCHES ({pattern})")
        return _recursive_rules(translate_query(query, log.schema))

    assert recursive("('a' -> 'b')* -> 'c'") == []
    assert len(recursive("START ((ANY -> ANY)*) END")) == 1

    # START and END join the operand that owns their endpoint, so the
    # anchored query derives its operands from the case's first and last
    # events alone, not over every start before an anchor filters them.
    anchored = parse_query(
        "SELECT cid FROM eventlog WHERE event_name MATCHES (START ((ANY ~> ANY) ~> (ANY ~> ANY)) END)"
    )
    growth = []
    for n in (40, 80):
        bindings[0] = 0
        assert cross_check(anchored, EventLog(log.schema, log.events[:n])).equal
        growth.append(bindings[0])
    assert growth[1] < 8 * growth[0], growth


def _copy_rules(program):
    """Rules whose body is one positive derived atom with the head's
    arguments."""
    return [
        r for r in program.rules
        if len(r.body) == 1
        and isinstance(r.body[0], Atom)
        and not r.body[0].negated
        and r.body[0].pred not in program.edb_predicates
        and r.body[0].args == r.head.args
    ]


@cache
def translation_corpora():
    """(name, pairs) for each corpus, built once per session."""
    return (
        ("random", seeded(random_pair, 81, 100)),
        ("null-bearing", seeded(null_bearing_pair, 85, 300)),
        ("nested", nested_identifier_corpus()),
        ("long-case", seeded(long_case_pair, 2026, 100)),
    )


def test_translated_programs_have_no_copy_rules():
    # The one exception is a star's base rule: its predicate reads itself.
    stars = 0
    for name, corpus in translation_corpora():
        for query, log in corpus:
            program = translate_query(query, log.schema)
            recursive = {r.head.pred for r in _recursive_rules(program)}
            assert [rule_to_text(r) for r in _copy_rules(program) if r.head.pred not in recursive] == [], (
                f"{name}: {pretty_print(query)}"
            )
            stars += len(recursive)
    # The corpora reach stars read at both ends, the one place a copy may be.
    assert stars > 0


def _anchor_wrappers(rules, edb):
    """Rules whose body is one derived atom plus only first and last atoms,
    unless that atom is a star read at both ends: it reads itself."""
    recursive = {r.head.pred for r in _recursive_rules(DatalogProgram(tuple(rules), edb))}
    wrappers = []
    for r in rules:
        derived = [i for i in r.body if isinstance(i, Atom) and i.pred not in edb]
        anchors = [i for i in r.body if isinstance(i, Atom) and i.pred in ("first", "last")]
        if len(derived) == 1 and anchors and len(derived) + len(anchors) == len(r.body):
            if derived[0].pred not in recursive:
                wrappers.append(rule_to_text(r))
    return wrappers


def test_translated_programs_have_no_anchor_wrappers():
    # START and END add no relation: the single event, or the star read at
    # both ends, that owns the endpoint joins first or last itself.
    for name, corpus in translation_corpora():
        for query, log in corpus:
            program = translate_query(query, log.schema)
            assert _anchor_wrappers(program.rules, program.edb_predicates) == [], f"{name}: {pretty_print(query)}"
            for match in query.conditions:
                if isinstance(match, (SimpleMatch, BehaviourMatch)):
                    rules = translate_pattern(compile_pattern(match, log.schema))
                    assert _anchor_wrappers(rules, program.edb_predicates) == [], f"{name}: {pretty_print(query)}"
    # START (ANY) END is one rule: see test_translate_query_emits_only_used_helpers.
    assert [rule_to_text(r) for r in translate_pattern(simple("START ('a' ~> 'b') END"))] == [
        'p0(T,C) :- event(C,E,T), attr_event_name(C,E,"a"), first(C,T).',
        'p1(T,C) :- event(C,E,T), attr_event_name(C,E,"b"), last(C,T).',
        "p2(Ts,Ts2,C) :- p0(Ts,C), p1(Ts2,C), Ts < Ts2.",
    ]
    # A star read at both ends keeps its recursion, and its anchored reader
    # reads it over two distinct timestamps: a single event's one would keep
    # only the segments of one event.
    assert [rule_to_text(r) for r in translate_pattern(simple("START ('a'*) END"))][-1] == (
        "p2(Ts,Te,C) :- p1(Ts,Te,C), first(C,Ts), last(C,Te)."
    )
    rows = [("c1", "a"), ("c1", "a"), ("c1", "a"), ("c2", "a"), ("c2", "b")]
    log = EventLog(("event_name",), tuple(Event(f"e{i}", c, i, (("event_name", v),)) for i, (c, v) in enumerate(rows)))
    report = cross_check(parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (START ('a'*) END)"), log)
    assert report.equal and report.datalog_rows == {("c1",)}


def _defined_twice(rules):
    """The number of predicates whose rules, up to the predicate's name,
    repeat those of another: equal head arguments and equal sets of bodies."""
    definitions = defaultdict(set)
    for r in rules:
        definitions[r.head.pred].add((r.head.args, r.body))
    keys = [frozenset(d) for d in definitions.values()]
    return len(keys) - len(set(keys))


def test_translated_programs_define_each_relation_once():
    # A predicate is its definition, shared by every subformula and every
    # pattern of a query that derives the same relation.
    for name, corpus in translation_corpora():
        for query, log in corpus:
            assert _defined_twice(translate_query(query, log.schema).rules) == 0, f"{name}: {pretty_print(query)}"
            for match in query.conditions:
                if isinstance(match, (SimpleMatch, BehaviourMatch)):
                    rules = translate_pattern(compile_pattern(match, log.schema))
                    assert _defined_twice(rules) == 0, f"{name}: {pretty_print(query)}"


def test_translated_programs_repeat_no_rule():
    # A repeated disjunct gives the same rule twice; it is emitted once.
    assert translate_pattern(simple("'a' OR 'a'")) == translate_pattern(simple("'a'"))

    def program(conditions):
        return translate_query(parse_query(f"SELECT cid FROM eventlog WHERE {conditions}"), ("event_name",))

    # The order of the disjuncts does not make another relation, and the
    # output reads the one root once.
    swapped = program("event_name MATCHES ('a' OR 'b') AND event_name MATCHES ('b' OR 'a')")
    assert program_to_text(swapped).splitlines() == [
        "output(C) :- event(C,E,T), p0(C).",
        'p0(C) :- event(C,E,T), attr_event_name(C,E,"a").',
        'p0(C) :- event(C,E,T), attr_event_name(C,E,"b").',
    ]
    # Two patterns on one attribute share the predicate of their literal.
    shared = program("event_name MATCHES ('a' ~> 'b') AND event_name MATCHES ('b' ~> 'c')")
    assert sum('"b"' in rule_to_text(r) for r in shared.rules) == 1
    for name, corpus in translation_corpora():
        for query, log in corpus:
            rules = translate_query(query, log.schema).rules
            assert len(set(rules)) == len(rules), f"{name}: {pretty_print(query)}"


def test_identifier_conjunctions_name_only_multi_body_parts():
    # A part of a conjunction that is one body merges into the conjunction's
    # body, so a (T, C) predicate read there has several rules; and no rule,
    # the output rule included, lists a body item twice.
    repeated = translate_query(parse_query("SELECT cid FROM eventlog WHERE a = b AND a = b AND a = b"), ("a", "b"))
    assert rule_to_text(repeated.rules[0]) == (
        "output(C) :- event(C,E,T), attr_a(C,E,V0), attr_b(C,E,V0), !null(V0)."
    )
    t_c = (Var("T"), Var("C"))
    for name, corpus in translation_corpora():
        for query, log in corpus:
            program = translate_query(query, log.schema)
            heads = Counter(r.head.pred for r in program.rules)
            read = {
                a.pred for r in program.rules for a in r.body
                if isinstance(a, Atom) and a.args == t_c and a.pred not in program.edb_predicates
            }
            assert [p for p in read if heads[p] == 1] == [], f"{name}: {pretty_print(query)}"
            rules = list(program.rules)
            for match in query.conditions:
                if isinstance(match, (SimpleMatch, BehaviourMatch)):
                    rules += translate_pattern(compile_pattern(match, log.schema))
            for rule in rules:
                assert len(set(rule.body)) == len(rule.body), f"{name}: {rule_to_text(rule)}"


def test_row_filters_are_behaviour_conjunct_bodies():
    # A row filter on attributes is translated by the code of the behaviour
    # conjunct it equals: the output body is that conjunct's body.
    for condition in ("a = b", "a = 'x'"):
        row = translate_query(parse_query(f"SELECT cid FROM eventlog WHERE {condition}"), ("a", "b"))
        behaviour = translate_query(
            parse_query(f"SELECT cid FROM eventlog WHERE BEHAVIOUR {condition} AS w MATCHES (w)"), ("a", "b")
        )
        (output,) = [r for r in row.rules if r.head.pred == OUTPUT_PRED]
        (p0,) = [r for r in behaviour.rules if r.head.pred == "p0"]
        assert output.body == p0.body, condition


def _query_and_pattern_rules(query, schema):
    """The rules of a query's program, then those of each of its patterns."""
    rules = list(translate_query(query, schema).rules)
    for match in query.conditions:
        if isinstance(match, (SimpleMatch, BehaviourMatch)):
            rules += translate_pattern(compile_pattern(match, schema))
    return rules


def test_output_rules_equate_no_attribute_values():
    # Terms that a body equates are one term, so no translated rule holds an
    # = item: a filter on eid, cid or ts puts its constant in the columns.
    for name, corpus in translation_corpora():
        for query, log in corpus:
            for rule in _query_and_pattern_rules(query, log.schema):
                assert not any(i.pred == "=" for i in rule.body), f"{name}: {rule_to_text(rule)}"
    text = program_to_text(translate_query(parse_query("SELECT eid, a FROM eventlog WHERE eid = 'e1' AND ts = 1"), ("a",)))
    assert text == 'output("e1",V0) :- event(C,"e1",1), attr_a(C,"e1",V0).'


def test_output_rules_read_each_attribute_once():
    # The values that a body equates are one term, a constant if it has one,
    # so every rule reads each attribute of its event once, however the
    # filters, the behaviours and the projection name it.
    schema = ("event_name", "resource")
    for condition, text in (
        ("event_name = resource",
         "output(E,V0) :- event(C,E,T), attr_resource(C,E,V0), attr_event_name(C,E,V0), !null(V0)."),
        ("resource = 'x'", 'output(E,"x") :- event(C,E,T), attr_resource(C,E,"x").'),
    ):
        query = parse_query(f"SELECT eid, resource FROM eventlog WHERE {condition}")
        assert program_to_text(translate_query(query, schema)) == text
    for name, corpus in translation_corpora():
        for query, log in corpus:
            for rule in _query_and_pattern_rules(query, log.schema):
                reads = Counter(i.args[:2] + (i.pred,) for i in rule.body if isinstance(i, Atom) and not i.negated
                                and i.pred.startswith("attr_"))
                assert max(reads.values(), default=1) == 1, f"{name}: {rule_to_text(rule)}"


def _contradictory_rules(rules):
    """Rules whose body holds an atom beside its negation."""
    return [
        r for r in rules
        if any(isinstance(i, Atom) and i.negated and Atom(i.pred, i.args) in r.body for i in r.body)
    ]


def _constant_clashes(rules):
    """(attribute clashes, variable clashes): the rules that give one
    attribute of one event two constants, and those that equate one variable
    to two constants."""
    clashes = ([], [])
    for r in rules:
        attrs, variables = defaultdict(set), defaultdict(set)
        for i in r.body:
            if isinstance(i, Atom) and not i.negated and i.pred.startswith("attr_") and not isinstance(i.args[2], Var):
                attrs[i.pred, i.args[:2]].add(i.args[2])
            elif i.pred == "=" and isinstance(i.args[0], Var) and not isinstance(i.args[1], Var):
                variables[i.args[0]].add(i.args[1])
        for found, values in zip(clashes, (attrs, variables)):
            if any(len(v) > 1 for v in values.values()):
                found.append(rule_to_text(r))
    return clashes


def _empty_reads(program):
    """The derived predicates that a rule reads and no rule derives."""
    heads = {r.head.pred for r in program.rules} | program.edb_predicates | set(_BUILT_INS)
    return sorted({i.pred for r in program.rules for i in r.body if i.pred not in heads})


def test_translated_rules_can_fire():
    # A body never holds if it holds an atom and its negation, gives one
    # attribute of one event two constants (attr_a is a function of (C, E)),
    # equates a variable to two constants, or reads a relation that no rule
    # derives; the translation emits none. A failed a = a is its null body
    # alone, and a subformula with no body left is empty, up to the root.
    for name, corpus in translation_corpora():
        for query, log in corpus:
            programs = [translate_query(query, log.schema)]
            edb = programs[0].edb_predicates
            programs += [
                DatalogProgram(tuple(translate_pattern(compile_pattern(match, log.schema))), edb)
                for match in query.conditions if isinstance(match, (SimpleMatch, BehaviourMatch))
            ]
            for program in programs:
                where = f"{name}: {pretty_print(query)}"
                assert [rule_to_text(r) for r in _contradictory_rules(program.rules)] == [], where
                assert _constant_clashes(program.rules) == ([], []), where
                assert _empty_reads(program) == [], where
                assert [f for f in audit_program(program) if f[0] == "unsatisfiable"] == [], where
    query = parse_query(
        "SELECT cid, eid FROM eventlog WHERE BEHAVIOUR resource = resource AS r MATCHES (NOT (r) ~> ANY)"
    )
    assert program_to_text(translate_query(query, ("event_name", "resource"))).splitlines() == [
        "output(C,E) :- event(C,E,T), p2(C).",
        "p0(T,C) :- event(C,E,T), attr_resource(C,E,V1), null(V1).",
        "p1(T,C) :- event(C,E,T).",
        "p2(C) :- p0(Ts,C), p1(Ts2,C), Ts < Ts2.",
    ]
    # 'b' and NOT ('b') merge into one body that never holds, so the
    # conjunction has none, nor has the conjunction that holds it.
    assert translate_pattern(simple("NOT ('b' OR NOT ('b'))")) == []
    assert translate_pattern(simple("NOT (NOT ('a') OR NOT (NOT ('b' OR NOT ('b'))))")) == []
    # A query that can never match translates to no rule: x AND NOT (x)
    # holds on no event, no event is both 'c' and 'a', and no row has two
    # event names.
    behaviours = "SELECT cid FROM eventlog WHERE BEHAVIOUR event_name = {} AS x, event_name = {} AS y MATCHES ({})"
    # Nor is an event 'x' where its event name is null: NOT (y) is
    # null(V0), and V0 is "x".
    for text in (
        behaviours.format("'b'", "'b'", "NOT (NOT (x) OR x)"),
        behaviours.format("'c'", "'a'", "NOT (NOT (x) OR NOT (y)) ~> ANY"),
        behaviours.format("'x'", "event_name", "NOT (NOT (x) OR y)"),
        "SELECT cid, event_name FROM eventlog WHERE event_name = 'b' AND event_name = 'a'",
    ):
        query = parse_query(text)
        assert translate_query(query, ("event_name",)).rules == (), text
        for match in query.conditions:
            if isinstance(match, BehaviourMatch):
                assert translate_pattern(compile_pattern(match, ("event_name",))) == [], text


# The sort of each EDB column: case ids, event ids, timestamps, values.
_COLUMN_SORTS = {
    "event": ("case", "event", "time"),
    "next": ("case", "time", "time"),
    "first": ("case", "time"),
    "last": ("case", "time"),
    "null": ("value",),
}


def _mixed_sorts(rule):
    """The names of the variables that a rule puts in columns of two sorts:
    EDB columns, the time operands of <, and variables joined by =; or
    equates, through =, with a constant of another sort: a timestamp with a
    str, or anything else with an int. Then the text of each constant that
    an EDB column holds beside that sort: a str in a time column, or an int
    in a case, event or value column."""
    sorts = defaultdict(set)
    joined, constants = [], []
    for i in rule.body:
        if i.pred == "<":
            for term in i.args:
                sorts[term].add("time")
        elif i.pred == "=":
            left, right = i.args
            if isinstance(left, Var) and isinstance(right, Var):
                joined.append((left, right))
            else:
                constants.append((left, right) if isinstance(left, Var) else (right, left))
        elif i.pred in _COLUMN_SORTS or i.pred.startswith("attr_"):
            for term, sort in zip(i.args, _COLUMN_SORTS.get(i.pred, ("case", "event", "value"))):
                sorts[term].add(sort)
    changed = True
    while changed:
        changed = False
        for left, right in joined:
            union = sorts[left] | sorts[right]
            changed |= union != sorts[left] or union != sorts[right]
            sorts[left] = sorts[right] = union
    mixed = {t for t, found in sorts.items() if len(found) > 1}
    mixed |= {var for var, const in constants if ("time" in sorts[var]) != isinstance(const, int)}
    misplaced = {
        t for t, found in sorts.items()
        if not isinstance(t, Var) and any((sort == "time") != isinstance(t, int) for sort in found)
    }
    return sorted(t.name for t in mixed if isinstance(t, Var)) + sorted(map(repr, misplaced))


def test_translated_variables_keep_one_sort():
    # No join compares values of two sorts: each variable stays in columns
    # of one sort, and a query that equates two column kinds has no rule.
    for name, corpus in translation_corpora():
        for query, log in corpus:
            for rule in _query_and_pattern_rules(query, log.schema):
                assert _mixed_sorts(rule) == [], f"{name}: {rule_to_text(rule)}"
    # The corpora compare ts with ints alone; a filter that compares two
    # sorts translates to no rule, and one within a sort to none that mixes.
    for condition in ("eid = cid", "eid = a", "ts = 'x'", "TS = '1'", "ts = 1", "eid = 'e1'", "cid = 'c'"):
        query = parse_query(f"SELECT eid, ts FROM eventlog WHERE {condition}")
        for rule in _query_and_pattern_rules(query, ("a",)):
            assert _mixed_sorts(rule) == [], f"{condition}: {rule_to_text(rule)}"
    # A timestamp equated with a str, or an id with an int, mixes sorts, and
    # so does a str in a time column; an id and a timestamp in theirs do not.
    event = Atom("event", (_C, _E, _T))
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_E,)), (event, Atom("=", (_T, "x"))))) == ["T"]
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_E,)), (event, Atom("=", (_E, 1))))) == ["E"]
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_E,)), (event, Atom("=", (_T, 1)), Atom("=", (_E, "x"))))) == []
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_E,)), (Atom("event", (_C, _E, "x")),))) == ["'x'"]
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_C,)), (Atom("event", (_C, "e1", 1)),))) == []
    assert _mixed_sorts(Rule(Atom(OUTPUT_PRED, (_C,)), (Atom("attr_a", (_C, _E, 1)),))) == ["1"]


def test_audit_reports_and_evaluate_runs_unsatisfiable_rules():
    # One rule per reason a body can never hold; each gets exactly one
    # finding, and evaluate runs it and derives nothing from it.
    v = Var("V")
    body = (Atom("event", (_C, _E, _T)), Atom("attr_a", (_C, _E, v)))
    edb = edb_predicates(("a",))
    never = {
        "holds !attr_a(C,E,V) beside its negation": (*body, Atom("attr_a", (_C, _E, v), negated=True)),
        'equates "x" and "y"': (*body, Atom("attr_a", (_C, _E, "x")), Atom("attr_a", (_C, _E, "y"))),
        'equates "a" and "b"': (*body, Atom("=", (v, "a")), Atom("=", (v, "b"))),
        'holds null("x"), which is false': (*body, Atom("attr_a", (_C, _E, "x")), Atom("null", (v,))),
        "reads 'q', which no rule derives": (*body, Atom("q", (_C,))),
    }
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", "x"),)), Event("e2", "c", 2, (("a", None),))))
    for reason, never_body in never.items():
        program = DatalogProgram((Rule(Atom("p", (_C,)), never_body),), edb)
        assert audit_program(program) == [("unsatisfiable", f"rule for 'p' {reason}")]
        assert evaluate(program, facts_from_log(log))["p"] == set()
        # An unsafe or non-EDB negation still raises, whatever else the rule holds.
        unsafe = Rule(Atom("p", (_C, Var("X"))), never_body)
        with pytest.raises(UnsafeRule, match="X"):
            evaluate(DatalogProgram((unsafe,), edb), facts_from_log(log))
        idb = Rule(Atom("p", (_C,)), (*never_body, Atom("r", (_C,), negated=True)))
        with pytest.raises(StratificationViolation, match="'r'"):
            evaluate(DatalogProgram((idb,), edb), facts_from_log(log))
    # The same body with one constant is clean: the value x holds at e1.
    once = Rule(Atom("p", (_C,)), (*body, Atom("attr_a", (_C, _E, "x"))))
    assert audit_program(DatalogProgram((once,), edb)) == []


def test_audit_clean_on_generated_programs():
    rng = random.Random(82)
    for _ in range(50):
        query, log = random_pair(rng)
        program = translate_query(query, log.schema)
        assert audit_program(program) == []


def test_serialization_formats(quotes_log):
    program = translate_query(
        parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (NOT ('a'))"),
        quotes_log.schema,
    )
    assert program_to_text(program).splitlines() == [
        "output(C) :- event(C,E,T), p0(C).",
        'p0(C) :- event(C,E,T), !attr_event_name(C,E,"a").',
    ]

    log = EventLog(
        ("a",),
        (Event("e1", "c", 7, (("a", 'say "hi"'),)), Event("e2", "c", 9, (("a", None),))),
    )
    facts_text = facts_to_text(facts_from_log(log))
    assert facts_text.splitlines() == [
        'attr_a("c","e1","say \\"hi\\"").',
        'attr_a("c","e2",null).',
        'event("c","e1",7).',
        'event("c","e2",9).',
        'first("c",7).',
        'last("c",9).',
        'next("c",7,9).',
        "null(null).",
    ]

    # Line breaks in a value or in a query literal are escaped, so each rule
    # and each fact is one line; a tab stays as it is.
    program = translate_query(
        parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES ('a\nb' ~> 'c\r\nd')"),
        ("event_name",),
    )
    assert program_to_text(program).splitlines() == [
        "output(C) :- event(C,E,T), p2(C).",
        'p0(T,C) :- event(C,E,T), attr_event_name(C,E,"a\\nb").',
        'p1(T,C) :- event(C,E,T), attr_event_name(C,E,"c\\r\\nd").',
        "p2(C) :- p0(Ts,C), p1(Ts2,C), Ts < Ts2.",
    ]
    # Every character of the Basic Multilingual Plane, which holds all that
    # str.splitlines breaks on.
    plane = "".join(map(chr, range(0x10000)))
    log = EventLog(
        ("a",),
        (
            Event("e\n1", "c\r", 1, (("a", "x\ty"),)),
            Event("e\n1", "c\r\n", 2, (("a", plane),)),
        ),
    )
    facts = facts_from_log(log)
    facts_text = facts_to_text(facts)
    assert len(facts_text.splitlines()) == sum(map(len, facts.values())) == 9
    assert facts_text.splitlines()[0] == 'attr_a("c\\r","e\\n1","x\ty").'


def test_evaluate_matches_naive_reference_on_translated_programs():
    rng = random.Random(84)
    derived = 0
    for i in range(200):
        query, log = random_pair(rng)
        program = translate_query(query, log.schema)
        facts = facts_from_log(log)
        got = evaluate(program, facts)
        assert got == naive_evaluate(program, facts), f"pair {i}: {pretty_print(query)}"
        derived += sum(len(got[r.head.pred]) for r in program.rules if r.head.pred != OUTPUT_PRED)
    assert derived > 0


def test_evaluate_matches_naive_reference_on_hand_built_programs(quotes_log):
    for log in (quotes_log, load_event_log(ALTERNATING_CSV)):
        facts = facts_from_log(log)
        for program in hand_built_programs(log.schema):
            got = evaluate(program, facts)
            assert got == naive_evaluate(program, facts), program_to_text(program)
    alternating = load_event_log(ALTERNATING_CSV)
    facts = facts_from_log(alternating)
    got = {}
    for program in hand_built_programs(alternating.schema):
        got.update(evaluate(program, facts))
    assert len(got["reach"]) == 10 and got["loop"] == set()
    assert got["later_a"] == {("c", e) for e in ("2", "3", "4", "5")}
    assert len(got["odd"]) == 6 and len(got["even"]) == 4
    assert got["top"] == {("c", e) for e in ("2", "3", "4")}
    assert got["not_first"] == got["top"] | {("c", "5")}
    assert got["self_next"] == set() and got["has_stay"] == {("c",)}
    assert got["walk"] == got["reached"] == {("c", t) for t in (10, 20, 30, 40, 50)}
    assert got["at_a"] == {("c", t) for t in (10, 30, 50)}
    assert got["not_before_20"] == {("c", t) for t in (20, 30, 40, 50)}
    assert got["beside_a"] == {("c", "a"), ("c", "b")}
    assert got["p"] == {("c",)} and got["q"] == set()


def test_atoms_differing_in_a_constant_share_one_index():
    # attr_event_name(C,E,"a") and (C,E,"b") are both probed on (C,E) and the
    # constant, so both read one index of attr_event_name.
    log = load_event_log(ALTERNATING_CSV)
    rules = [
        Rule(Atom(name, (_C, _T)), (Atom("event", (_C, _E, _T)), Atom("attr_event_name", (_C, _E, value))))
        for name, value in (("at_a", "a"), ("at_b", "b"))
    ]
    store = datalog._Relations(facts_from_log(log))
    got = [datalog._eval_rule(datalog._compile_rule(rule), store) for rule in rules]
    assert got == [{("c", t) for t in (10, 30, 50)}, {("c", t) for t in (20, 40)}]
    assert len(store._indexes["attr_event_name"]) == 1


def test_non_recursive_program_evaluates_each_rule_once(monkeypatch):
    log = load_event_log("eid,cid,ts,event_name,resource\n1,c,10,b,y\n2,c,20,a,x\n3,c,30,b,x\n4,d,10,b,y\n")
    query = parse_query(
        "SELECT cid, event_name FROM eventlog WHERE BEHAVIOUR event_name = 'b' AND resource = 'y' AS p, "
        "resource = 'x' AS q MATCHES (p ~> q)"
    )
    program = translate_query(query, log.schema)
    plans = []
    real = datalog._eval_rule

    def counted(plan, *args):
        plans.append(plan)
        return real(plan, *args)

    monkeypatch.setattr(datalog, "_eval_rule", counted)
    got = evaluate(program, facts_from_log(log))
    assert got[OUTPUT_PRED] == {("c", "b"), ("c", "a")}
    assert len(plans) == len({id(plan) for plan in plans}) == len(program.rules) == 4
