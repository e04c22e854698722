import random

import pytest

from sccq.ast import SimpleMatch
from sccq.datalog import (
    OUTPUT_PRED,
    Atom,
    CheckReport,
    Cmp,
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
from sccq.eventlog import Event, EventLog, event_sets, load_event_log
from sccq.gen import random_event_log, random_pair, random_pattern
from sccq.matcher import compile_pattern, satisfying_segments
from sccq.parser import parse_pattern, parse_query, pretty_print


def simple(text, schema=("event_name",), attribute="event_name"):
    return compile_pattern(SimpleMatch(attribute, parse_pattern(text)), schema)


# --- the nested-loop evaluator, kept as the reference for the indexed one -----

def _resolve(term, subst):
    return subst[term.name] if isinstance(term, Var) else term


def _cmp_holds(item, subst):
    left, right = _resolve(item.left, subst), _resolve(item.right, subst)
    if item.op == "=":
        return left == right
    if not (isinstance(left, int) and isinstance(right, int)):
        return False
    return left < right if item.op == "<" else left > right


def _naive_eval_rule(rule, rels, delta_pos=None, delta=None):
    """Every positive atom scans its whole relation; filters run once all
    positive atoms are bound."""
    positives = [
        (i, item) for i, item in enumerate(rule.body) if isinstance(item, Atom) and not item.negated
    ]
    filters = [item for item in rule.body if not (isinstance(item, Atom) and not item.negated)]
    out = set()

    def walk(k, subst):
        if k == len(positives):
            for item in filters:
                if isinstance(item, Cmp):
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
                    seen = bound.get(arg.name)
                    if seen is None:
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
    """The same semi-naive fixpoint as evaluate, over the nested-loop join."""
    assert audit_program(program) == []
    rels = {p: set(ts) for p, ts in facts.items()}
    for rule in program.rules:
        rels.setdefault(rule.head.pred, set())
    for pred in program.edb_predicates:
        rels.setdefault(pred, set())

    negated = {
        item.pred
        for rule in program.rules
        for item in rule.body
        if isinstance(item, Atom) and item.negated and item.pred not in program.edb_predicates
    }
    helper_rules = [r for r in program.rules if r.head.pred in negated]
    main_rules = [r for r in program.rules if r.head.pred not in negated]

    changed = True
    while changed:
        changed = False
        for rule in helper_rules:
            fresh = _naive_eval_rule(rule, rels) - rels[rule.head.pred]
            if fresh:
                rels[rule.head.pred] |= fresh
                changed = True

    delta = {}
    for rule in main_rules:
        fresh = _naive_eval_rule(rule, rels) - rels[rule.head.pred]
        if fresh:
            delta.setdefault(rule.head.pred, set()).update(fresh)
    while delta:
        for pred, tuples in delta.items():
            rels[pred] |= tuples
        next_delta = {}
        for rule in main_rules:
            for pos, item in enumerate(rule.body):
                if not (isinstance(item, Atom) and not item.negated):
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
# q holds for every case; r copies q; s negates q, an EDB-only helper.
_BASE = Rule(Atom("q", (_C,)), (Atom("event", (_C, _E, _T)),))
_DERIVED = Rule(Atom("r", (_C,)), (Atom("q", (_C,)),))
_NEGATES_BASE = Rule(Atom("s", (_C,)), (Atom("event", (_C, _E, _T)), Atom("q", (_C,), negated=True)))

# A log on which ('a' -> 'b')* and 'a' ~> 'b' both hold.
ALTERNATING_CSV = "eid,cid,ts,event_name\n1,c,10,a\n2,c,20,b\n3,c,30,a\n4,c,40,b\n5,c,50,a\n"


def hand_built_programs(schema):
    """Valid programs that exercise the join beyond what translation emits:
    recursion through the successor relation, a variable repeated in one
    atom, constants in atoms and comparisons, and a filter with no variable."""
    edb = edb_predicates(schema)
    t2, t3, e2 = Var("T2"), Var("T3"), Var("E2")
    reach = (
        Rule(Atom("reach", (_C, _T, t2)), (Atom("next", (_C, _T, t2)),)),
        Rule(Atom("reach", (_C, _T, t3)), (Atom("reach", (_C, _T, t2)), Atom("next", (_C, t2, t3)))),
    )
    return [
        DatalogProgram((_BASE, _DERIVED), frozenset({"event"})),
        DatalogProgram((_BASE, _NEGATES_BASE), frozenset({"event"})),
        DatalogProgram(tuple(translate_pattern(simple("('a' -> 'b')*"))), edb),
        DatalogProgram(tuple(translate_pattern(simple("'a' ~> 'b'"))), edb),
        DatalogProgram(tuple(translate_pattern(simple("START (ANY) -> NOT ('b') END"))), edb),
        DatalogProgram(reach, edb),
        DatalogProgram(
            (
                *reach,
                Rule(Atom("loop", (_C, _T)), (Atom("reach", (_C, _T, _T)),)),
                Rule(
                    Atom("later_a", (_C, e2)),
                    (
                        Atom("event", (_C, _E, _T)),
                        Atom("attr_event_name", (_C, _E, ("v", "a"))),
                        Atom("reach", (_C, _T, t2)),
                        Atom("event", (_C, e2, t2)),
                        Cmp("=", _C, ("c", "c")),
                        Cmp("<", 1, 2),
                    ),
                ),
            ),
            edb,
        ),
    ]


def test_facts_from_log_counts(quotes_log):
    facts = facts_from_log(quotes_log)
    assert len(facts["event"]) == 7
    assert len(facts["attr_event_name"]) == 7
    assert len(facts["attr_status"]) == 7
    # one successor fact per pair of consecutive events: events - cases
    assert len(facts["next"]) == 7 - 2
    assert {f for f in facts["next"] if f[0] == ("c", "0001")} == {
        (("c", "0001"), 1675086864052, 1675160180724),
        (("c", "0001"), 1675160180724, 1675220315296),
    }


def test_fact_constants_are_sort_tagged(quotes_log):
    facts = facts_from_log(quotes_log)
    c, e, ts = next(iter(facts["event"]))
    assert c[0] == "c" and e[0] == "e" and isinstance(ts, int)
    c2, t1, t2 = next(iter(facts["next"]))
    assert c2[0] == "c" and isinstance(t1, int) and isinstance(t2, int) and t1 < t2
    assert all(v[0] == "v" for _, _, v in facts["attr_status"])


def test_null_values_produce_no_attr_fact():
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", None),)),))
    facts = facts_from_log(log)
    assert facts["attr_a"] == set()
    assert len(facts["event"]) == 1


def test_attribute_predicate_names():
    assert attribute_predicate("event_name") == "attr_event_name"
    assert attribute_predicate("event name") == "attr_event_name"
    with pytest.raises(MalformedCsv, match="collide"):
        facts_from_log(EventLog(("a b", "a_b"), ()))


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
    assert rule_to_text(rules[2]) == "p2(Ts,Te2,C) :- p0(Ts,Te,C), next(C,Te,Ts2), p1(Ts2,Te2,C)."
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

    # De Morgan: NOT (a OR b) conjoins the two negated forms
    demorgan = translate_pattern(simple("NOT ('a' OR 'b')"))
    root = demorgan[-1].head.pred
    body_preds = [b.pred for b in demorgan[-1].body if isinstance(b, Atom)]
    assert body_preds == [demorgan[0].head.pred, demorgan[1].head.pred]

    # double negation forwards to the positive form
    double = translate_pattern(simple("NOT (NOT ('a'))"))
    assert rule_to_text(double[-1]).startswith(f"{double[-1].head.pred}(Ts,Te,C) :- {double[0].head.pred}(")


def test_translate_negated_behaviour_ref_uses_conjunction_helper(quotes_log):
    query = parse_query(
        "SELECT cid FROM eventlog WHERE BEHAVIOUR status = 'WIP' AND event_name = event_name AS w "
        "MATCHES (NOT (w))"
    )
    program = translate_query(query, quotes_log.schema)
    helper = [r for r in program.rules if r.head.pred == "behaviour_w_holds"]
    assert len(helper) == 1
    assert all(isinstance(b, Atom) and not b.negated for b in helper[0].body)
    assert any(
        isinstance(b, Atom) and b.negated and b.pred == "behaviour_w_holds"
        for r in program.rules
        for b in r.body
    )
    # still passes the static scan: the helper is EDB-only
    assert audit_program(program) == []


def test_translate_query_output_rules(quotes_log):
    query = parse_query(
        "SELECT eid, status FROM eventlog WHERE ts = 5 AND cid = '0001' "
        "AND event_name MATCHES ('a' ~> 'b')"
    )
    program = translate_query(query, quotes_log.schema)
    out = [r for r in program.rules if r.head.pred == OUTPUT_PRED]
    assert len(out) == 1
    body = out[0].body
    cmps = [b for b in body if isinstance(b, Cmp)]
    assert [(c.op, c.right) for c in cmps] == [("=", 5), ("=", ("c", "0001"))]
    assert any(isinstance(b, Atom) and b.pred == "attr_status" for b in body)
    # pattern atom joins on the case variable
    pattern_atom = [b for b in body if isinstance(b, Atom) and b.pred.startswith("p")][-1]
    assert pattern_atom.args[-1] == Var("C")
    # the pattern rules close the program; ~> uses no helper
    assert [r.head.pred for r in program.rules] == [OUTPUT_PRED, "p0", "p1", "p2"]
    assert rule_to_text(program.rules[-1]) == "p2(Ts,Te2,C) :- p0(Ts,Te,C), p1(Ts2,Te2,C), Te < Ts2."


def test_translate_query_emits_only_used_helpers(quotes_log):
    def heads(text):
        return [r.head.pred for r in translate_query(parse_query(text), quotes_log.schema).rules]

    assert heads("SELECT cid FROM eventlog") == [OUTPUT_PRED]
    assert heads("SELECT cid FROM eventlog WHERE event_name MATCHES (ANY -> ANY)") == [
        OUTPUT_PRED, "p0", "p1", "p2",
    ]
    assert heads("SELECT cid FROM eventlog WHERE event_name MATCHES (START (ANY))")[-1] == "hasEarlier"
    assert heads("SELECT cid FROM eventlog WHERE event_name MATCHES (START (ANY) END)")[-2:] == [
        "hasEarlier", "hasLater",
    ]


def test_translate_query_star_gets_optional_output_rule(quotes_log):
    query = parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (('a' ~> 'b')*)")
    program = translate_query(query, quotes_log.schema)
    out = [r for r in program.rules if r.head.pred == OUTPUT_PRED]
    assert len(out) == 2
    with_atom, without = (out[0], out[1]) if len(out[0].body) > len(out[1].body) else (out[1], out[0])
    assert len(with_atom.body) == len(without.body) + 1


def test_edb_predicates(quotes_log):
    assert edb_predicates(quotes_log.schema) == frozenset(
        {"event", "next", "attr_event_name", "attr_status"}
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
                (Atom("event", (Var("C"), Var("E"), Var("T"))), Cmp("<", Var("T"), Var("Q"))),
            ),
        ),
        edb,
    )
    assert audit_program(cmp_unbound)[0][0] == "unsafe"


def test_audit_flags_negation_strata():
    edb = frozenset({"event"})
    c, e, t = _C, _E, _T
    base, derived = _BASE, _DERIVED
    # negating r is not allowed: r's body uses the IDB predicate q
    bad = Rule(Atom("s", (c,)), (Atom("event", (c, e, t)), Atom("r", (c,), negated=True)))
    program = DatalogProgram((base, derived, bad), edb)
    findings = audit_program(program)
    assert any(k == "stratification" and "'r'" in m for k, m in findings)
    with pytest.raises(StratificationViolation):
        evaluate(program, {"event": set()})

    undefined = DatalogProgram(
        (Rule(Atom("s", (c,)), (Atom("event", (c, e, t)), Atom("ghost", (c,), negated=True))),),
        edb,
    )
    assert audit_program(undefined)[0][0] == "stratification"
    # negating a helper with an EDB-only body is fine
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
            got = {(s, e) for s, e, c in derived[root] if c == ("c", es.cid)}
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
    lo = evaluate(program, facts_from_log(small))
    hi = evaluate(program, facts_from_log(big))
    for pred, tuples in lo.items():
        assert tuples <= hi[pred]


def test_evaluate_helper_relations(quotes_log):
    query = parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES (START (ANY) END)")
    program = translate_query(query, quotes_log.schema)
    derived = evaluate(program, facts_from_log(quotes_log))
    sets = {es.cid: es.timestamps for es in event_sets(quotes_log)}
    expected_earlier = {
        (("c", cid), t) for cid, ts in sets.items() for t in ts if t != ts[0]
    }
    assert derived["hasEarlier"] == expected_earlier
    expected_later = {(("c", cid), t) for cid, ts in sets.items() for t in ts if t != ts[-1]}
    assert derived["hasLater"] == expected_later
    # no case has a single-event segment that both starts and ends the case
    # unless it is the only event, so output is empty here
    assert derived[OUTPUT_PRED] == set()


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


def test_cross_check_reports_null_projection_divergence():
    # Known, documented divergence: the relational side keeps a row whose
    # projected attribute is null, the datalog side has no fact to bind.
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", None),)),))
    report = cross_check(parse_query("SELECT a FROM eventlog"), log)
    assert not report.equal
    assert report.ra_only == frozenset({(None,)})
    assert report.datalog_only == frozenset()
    assert report.summary().startswith("MISMATCH")


def test_cross_check_random_corpus():
    rng = random.Random(81)
    for _ in range(100):
        query, log = random_pair(rng)
        report = cross_check(query, log)
        assert report.equal, report.summary()


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
        "output(C) :- event(C,E,T), p0(Ps0,Pe0,C).",
        'p0(T,T,C) :- event(C,E,T), !attr_event_name(C,E,"a").',
    ]

    log = EventLog(
        ("a",),
        (Event("e1", "c", 7, (("a", 'say "hi"'),)), Event("e2", "c", 9, (("a", None),))),
    )
    facts_text = facts_to_text(facts_from_log(log))
    assert facts_text.splitlines() == [
        'attr_a("c","e1","say \\"hi\\"").',
        'event("c","e1",7).',
        'event("c","e2",9).',
        'next("c",7,9).',
    ]


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
    programs = hand_built_programs(alternating.schema)
    got = evaluate(programs[-1], facts_from_log(alternating))
    assert len(got["reach"]) == 10 and got["loop"] == set()
    assert got["later_a"] == {(("c", "c"), ("e", e)) for e in ("2", "3", "4", "5")}
