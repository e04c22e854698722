import random
from itertools import product

import pytest

import sccq.matcher as matcher
from sccq.ast import (
    AttrEqAttr,
    AttrEqConst,
    BehaviourDef,
    BehaviourMatch,
    BehaviourRef,
    DirectlyFollows,
    Follows,
    Identifier,
    Literal,
    NotExpr,
    OrExpr,
    SimpleMatch,
    Star,
    Start,
    matches_empty,
)
from sccq.datalog import DatalogProgram, cross_check, edb_predicates, evaluate, facts_from_log, translate_pattern
from sccq.engine import compile_plan
from sccq.errors import OracleBoundExceeded, SccError, UnboundBehaviourName, UnknownAttribute
from sccq.eventlog import EMPTY_SEGMENT, Event, EventLog, EventSet, Segment, cases, event_sets, merge_cases
from sccq.gen import random_event_log, random_pattern
from sccq.matcher import (
    compile_pattern,
    case_satisfies,
    oracle_satisfying_segments,
    pattern_select,
    satisfying_segments,
)
from sccq.parser import parse_pattern, parse_query


def simple(text, attribute="event_name", schema=("event_name",)):
    return compile_pattern(SimpleMatch(attribute, parse_pattern(text)), schema)


def segs(pattern, es):
    return {str(s) for s in satisfying_segments(pattern, es).segments}


def test_four_event_fixture_sets(four_event_log):
    es = event_sets(four_event_log)[0]
    assert segs(simple("'e2' ~> 'e4'"), es) == {"(20,90)"}
    assert segs(simple("ANY ~> 'e4'"), es) == {"(10,90)", "(20,90)", "(30,90)"}
    assert segs(simple("START ('e1' -> 'e2')"), es) == {"(10,20)"}
    assert segs(simple("'e1' -> ('e2' ~> 'e4')*"), es) == {"(10,90)"}
    assert segs(simple("('e2' ~> 'e4')*"), es) == {"empty", "(20,90)"}


def test_minimal_presentation_order(four_event_log):
    es = event_sets(four_event_log)[0]
    result = satisfying_segments(simple("ANY ~> 'e4'"), es)
    assert result.ordered()[0] == Segment.interval(30, 90)


def test_any_and_identifier_are_single_event(four_event_log):
    es = event_sets(four_event_log)[0]
    assert segs(simple("ANY"), es) == {"(10,10)", "(20,20)", "(30,30)", "(90,90)"}
    assert segs(simple("'e3'"), es) == {"(30,30)"}
    assert segs(simple("'zz'"), es) == set()


def test_follows_requires_strictly_later_start(four_event_log):
    es = event_sets(four_event_log)[0]
    # same event cannot be both endpoints
    assert segs(simple("'e2' ~> 'e2'"), es) == set()
    assert segs(simple("ANY ~> ANY"), es) == {
        "(10,20)", "(10,30)", "(10,90)", "(20,30)", "(20,90)", "(30,90)",
    }


def test_directly_follows_contiguity(four_event_log):
    es = event_sets(four_event_log)[0]
    assert segs(simple("'e1' -> 'e2'"), es) == {"(10,20)"}
    assert segs(simple("'e1' -> 'e3'"), es) == set()  # e2 lies between
    assert segs(simple("'e3' -> 'e4'"), es) == {"(30,90)"}  # gaps in time are fine


def test_star_contiguous_concatenation():
    log = EventLog(
        ("event_name",),
        tuple(Event(f"e{i}", "c", i * 10, (("event_name", v),)) for i, v in enumerate("ababa", 1)),
    )
    es = event_sets(log)[0]
    # 'a' at 10,30,50; 'b' at 20,40
    one = simple("('a' -> 'b')*")
    assert segs(one, es) == {"empty", "(10,20)", "(30,40)", "(10,40)"}
    assert segs(simple("'a'*"), es) == {"empty", "(10,10)", "(30,30)", "(50,50)"}


def test_star_composition_needs_nonempty_witnesses(four_event_log):
    es = event_sets(four_event_log)[0]
    # the star alone matches the empty segment, but as a composition operand
    # it must contribute a nonempty stretch
    assert segs(simple("'e1' -> 'zz'*"), es) == set()
    assert segs(simple("'zz'* ~> 'e4'"), es) == set()


def test_start_end_filters(four_event_log):
    es = event_sets(four_event_log)[0]
    assert segs(simple("START (ANY)"), es) == {"(10,10)"}
    assert segs(simple("ANY END"), es) == {"(90,90)"}
    assert segs(simple("START (ANY ~> ANY) END"), es) == {"(10,90)"}
    # the empty segment never passes an endpoint filter
    assert segs(simple("START ('zz'*)"), es) == set()
    assert segs(simple("'zz'* END"), es) == set()


def test_matches_empty_only_for_star():
    assert matches_empty(Star(Identifier(Literal("a"))))
    assert not matches_empty(parse_pattern("'a' ~> 'b'*"))
    assert not matches_empty(parse_pattern("START ('a'*)"))


def test_identifier_or_not_semantics(four_event_log):
    es = event_sets(four_event_log)[0]
    assert segs(simple("'e1' OR 'e4'"), es) == {"(10,10)", "(90,90)"}
    assert segs(simple("NOT ('e1')"), es) == {"(20,20)", "(30,30)", "(90,90)"}
    assert segs(simple("NOT (NOT ('e1'))"), es) == {"(10,10)"}
    assert segs(simple("NOT ('e1' OR 'e4')"), es) == {"(20,20)", "(30,30)"}


def test_null_attribute_matches_negation_only():
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", None),)),))
    es = event_sets(log)[0]
    assert not case_satisfies(simple("'x'", "a", ("a",)), es)
    assert case_satisfies(simple("NOT ('x')", "a", ("a",)), es)


def test_nfa_reads_attributes_by_position(monkeypatch):
    # Only the oracle reads attributes by name: selection and listing run on
    # the leaf tests that compile_pattern bound to schema positions.
    log = EventLog(
        ("a", "b"),
        (
            Event("e1", "c", 1, (("a", "x"), ("b", "x"))),
            Event("e2", "c", 2, (("a", None), ("b", None))),
            Event("e3", "c", 3, (("a", "y"), ("b", None))),
            Event("e4", "c", 4, (("a", "y"), ("b", "y"))),
        ),
    )
    same = BehaviourDef("same", (AttrEqConst("a", "y"), AttrEqAttr("a", "b")))
    patterns = [
        simple("'x'", "b", log.schema),
        simple("('x' OR NOT ('y')) -> ANY", "a", log.schema),
        compile_pattern(BehaviourMatch((same,), Identifier(BehaviourRef("same"))), log.schema),
    ]

    def read_by_name(event, name):
        raise AssertionError("the matcher read an attribute by name")

    monkeypatch.setattr(Event, "value", read_by_name)
    es = event_sets(log)[0]
    assert [case_satisfies(p, es) for p in patterns] == [True, True, True]
    assert [segs(p, es) for p in patterns] == [{"(1,1)"}, {"(1,2)", "(2,3)"}, {"(4,4)"}]


def test_pattern_select_refuses_another_schema():
    pattern = compile_pattern(SimpleMatch("event_name", parse_pattern("'a'")), ("event_name", "resource"))
    permuted = EventLog(
        ("resource", "event_name"), (Event("e1", "c", 1, (("resource", "a"), ("event_name", "b"))),)
    )
    with pytest.raises(SccError, match="schema"):
        pattern_select(pattern, permuted)
    rebound = compile_pattern(SimpleMatch("event_name", parse_pattern("'a'")), permuted.schema)
    assert pattern_select(rebound, permuted).events == ()


def test_behaviour_patterns(quotes_log):
    cond = BehaviourMatch(
        (BehaviourDef("w", (AttrEqConst("status", "WIP"),)),),
        DirectlyFollows(Identifier(BehaviourRef("w")), Identifier(BehaviourRef("w"))),
    )
    compiled = compile_pattern(cond, quotes_log.schema)
    by_cid = {es.cid: es for es in event_sets(quotes_log)}
    assert segs(compiled, by_cid["0001"]) == {"(1675160180724,1675220315296)"}
    assert segs(compiled, by_cid["0002"]) == {"(1675213914098,1675282027657)"}


def test_behaviour_conjunction_and_attr_eq_attr():
    log = EventLog(
        ("a", "b"),
        (
            Event("e1", "c", 1, (("a", "x"), ("b", "x"))),
            Event("e2", "c", 2, (("a", "x"), ("b", "y"))),
            Event("e3", "c", 3, (("a", None), ("b", None))),
        ),
    )
    cond = BehaviourMatch(
        (BehaviourDef("same", (AttrEqAttr("a", "b"),)),),
        Identifier(BehaviourRef("same")),
    )
    compiled = compile_pattern(cond, log.schema)
    # null = null is not a match
    assert segs(compiled, event_sets(log)[0]) == {"(1,1)"}


def test_compile_errors(quotes_log):
    with pytest.raises(UnknownAttribute, match="nope"):
        compile_pattern(SimpleMatch("nope", parse_pattern("ANY")), quotes_log.schema)
    with pytest.raises(UnboundBehaviourName, match="outside a BEHAVIOUR"):
        compile_pattern(
            SimpleMatch("event_name", Identifier(BehaviourRef("p"))), quotes_log.schema
        )
    with pytest.raises(UnboundBehaviourName, match="must be behaviour names"):
        compile_pattern(
            BehaviourMatch(
                (BehaviourDef("p", (AttrEqConst("status", "NEW"),)),),
                Identifier(Literal("x")),
            ),
            quotes_log.schema,
        )
    with pytest.raises(UnknownAttribute, match="behaviour 'p'"):
        compile_pattern(
            BehaviourMatch(
                (BehaviourDef("p", (AttrEqConst("nope", "1"),)),),
                Identifier(BehaviourRef("p")),
            ),
            quotes_log.schema,
        )
    with pytest.raises(UnboundBehaviourName, match="'q'"):
        compile_pattern(
            BehaviourMatch(
                (BehaviourDef("p", (AttrEqConst("status", "NEW"),)),),
                Identifier(BehaviourRef("q")),
            ),
            quotes_log.schema,
        )
    # An offending leaf is reported wherever it sits in the formula.
    def placements(ok, bad):
        return (
            Identifier(NotExpr(bad)),
            Identifier(OrExpr(ok, bad)),
            Start(Identifier(bad)),
            Star(Identifier(bad)),
            Follows(Identifier(ok), Star(Identifier(bad))),
        )

    p = (BehaviourDef("p", (AttrEqConst("status", "NEW"),)),)
    for formula in placements(Literal("x"), BehaviourRef("p")):
        with pytest.raises(UnboundBehaviourName, match="outside a BEHAVIOUR"):
            compile_pattern(SimpleMatch("event_name", formula), quotes_log.schema)
    for bad, message in ((Literal("x"), "must be behaviour names"), (BehaviourRef("q"), "'q' is not defined")):
        for formula in placements(BehaviourRef("p"), bad):
            with pytest.raises(UnboundBehaviourName, match=message):
                compile_pattern(BehaviourMatch(p, formula), quotes_log.schema)
    # The parser rejects duplicate names; the API reports them as an SccError.
    twice = BehaviourDef("p", (AttrEqConst("status", "NEW"),))
    with pytest.raises(UnboundBehaviourName, match="duplicate behaviour names"):
        compile_pattern(BehaviourMatch((twice, twice), Identifier(BehaviourRef("p"))), quotes_log.schema)


def test_pattern_select_case_closure(quotes_log):
    selected = pattern_select(simple("'Send quote'", schema=quotes_log.schema), quotes_log)
    assert cases(selected) == frozenset({"0002"})
    assert [e.eid for e in selected.events] == ["e0002", "e0004", "e0006", "e0007"]

    follows = simple("'Review request' ~> 'Send quote'", schema=quotes_log.schema)
    assert [e.eid for e in pattern_select(follows, quotes_log).events] == [
        "e0002", "e0004", "e0006", "e0007",
    ]

    everything = pattern_select(simple("ANY", schema=quotes_log.schema), quotes_log)
    assert len(everything.events) == 7

    nothing = pattern_select(simple("'zz'", schema=quotes_log.schema), quotes_log)
    assert nothing.events == ()


def test_pattern_select_star_keeps_all_cases(quotes_log):
    # a star pattern is satisfied by the empty segment, hence by every case
    selected = pattern_select(simple("'zz'*", schema=quotes_log.schema), quotes_log)
    assert selected == quotes_log


def test_case_satisfies_empty_event_set():
    es = event_sets(EventLog(("a",), ()))
    assert es == []  # no cases at all
    log = EventLog(("a",), (Event("e", "c", 1, (("a", "v"),)),))
    assert case_satisfies(compile_pattern(SimpleMatch("a", Star(Identifier(Literal("q")))), ("a",)),
                          event_sets(log)[0])


def test_oracle_bound():
    log = random_event_log(random.Random(1), cases=1, max_events=5, schema=("event_name",))
    es = event_sets(log)[0]
    pattern = simple("ANY")
    with pytest.raises(OracleBoundExceeded):
        oracle_satisfying_segments(pattern, es, bound=len(es) - 1)
    result = oracle_satisfying_segments(pattern, es, bound=len(es))
    assert result.segments == satisfying_segments(pattern, es).segments


def test_oracle_agrees_on_seeded_batch():
    # The second pass puts each timestamp t at 1_675_000_000_000 + t * t:
    # epoch milliseconds with uneven gaps between the positions.
    rng = random.Random(5)
    for _ in range(60):
        log = random_event_log(rng, cases=1, max_events=7, schema=("event_name",), values=("a", "b", "c"))
        pattern = compile_pattern(
            SimpleMatch("event_name", random_pattern(rng, depth=3, values=("a", "b", "c"))),
            log.schema,
        )
        es = event_sets(log)[0]
        epoch = EventSet(es.cid, tuple(e._replace(ts=1_675_000_000_000 + e.ts * e.ts) for e in es.events))
        for case in (es, epoch):
            oracle, listed = oracle_satisfying_segments(pattern, case), satisfying_segments(pattern, case)
            assert oracle.segments == listed.segments
            assert oracle == listed  # as cmd_match compares them


def test_oracle_agrees_on_cases_of_no_and_one_event():
    one = Event("e1", "c", 7, (("event_name", "a"),))
    for text in ("ANY*", "'a'", "START (ANY) END"):
        pattern = simple(text)
        for es in (EventSet("c", ()), EventSet("c", (one,))):
            assert oracle_satisfying_segments(pattern, es) == satisfying_segments(pattern, es), (text, len(es))
    # With no event, the empty segment is (0, -1), and only a star holds on it.
    none, star = EventSet("c", ()), simple("ANY*")
    assert matcher._Oracle(star, none).satisfies(0, -1, star.formula)
    assert oracle_satisfying_segments(star, none).ordered() == [EMPTY_SEGMENT]
    assert oracle_satisfying_segments(simple("START (ANY) END"), none).ordered() == []
    assert oracle_satisfying_segments(simple("'a'"), EventSet("c", (one,))).pairs == ((7, 7),)


def _oracle_depth(monkeypatch, text, n):
    """The deepest nesting of _Oracle.satisfies calls while the oracle lists
    the pattern over one case of n events named a, b, a, b, ..."""
    depth, deepest = [0], [0]
    satisfies = matcher._Oracle.satisfies

    def counted(self, *args):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return satisfies(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(matcher._Oracle, "satisfies", counted)
    es = EventSet("c", tuple(Event(f"e{i}", "c", i, (("event_name", "ab"[i % 2]),)) for i in range(n)))
    oracle_satisfying_segments(simple(text), es, bound=len(es))
    monkeypatch.undo()
    return deepest[0]


@pytest.mark.parametrize("text", ["ANY*", "'a' -> ('b' -> 'a')*"])
def test_oracle_recursion_is_as_deep_as_the_pattern(monkeypatch, text):
    depths = {n: _oracle_depth(monkeypatch, text, n) for n in (10, 80)}
    assert depths[10] == depths[80], depths


def test_match_result_interface(four_event_log):
    es = event_sets(four_event_log)[0]
    result = satisfying_segments(simple("('e2' ~> 'e4')*"), es)
    assert result.satisfied
    assert result.ordered()[0] is EMPTY_SEGMENT
    empty = satisfying_segments(simple("'zz'"), es)
    assert not empty.satisfied and empty.ordered() == []


# --- the NFA's selection and listing against their two references ----------

_NFA_BEHAVIOURS = (
    BehaviourDef("p", (AttrEqConst("event_name", "a"),)),
    BehaviourDef("q", (AttrEqAttr("event_name", "resource"),)),
    BehaviourDef("r", (AttrEqConst("resource", "b"), AttrEqConst("event_name", "c"))),
)
# Shapes that random patterns reach only rarely: nested and inner stars, and
# START / END inside concatenations.
_NFA_SHAPES = (
    "(('a'*)*) -> 'b'",
    "'a'* -> 'b'",
    "('a' -> 'b'*)* ~> ('c' OR NOT ('a'))",
    "'c' -> START ('a')",
    "START ('a') ~> ('b' END)",
    "('a' END) -> 'b'",
    "(START ('a' -> ANY)*) ~> 'c' END",
    "ANY ~> (ANY -> 'b')* ~> ANY END",
)


def _nfa_corpus(rng, count, min_events, max_events):
    """Seeded (pattern, case) pairs on null-bearing logs: literal patterns on
    either attribute, behaviour patterns, and the shapes above."""
    schema = ("event_name", "resource")
    pairs = []
    while len(pairs) < count:
        log = random_event_log(
            rng, cases=4, max_events=max_events, schema=schema, values=("a", "b", "c"), allow_null=True
        )
        roll = rng.random()
        if roll < 0.4:
            cond = SimpleMatch(rng.choice(schema), random_pattern(rng, depth=3, values=("a", "b", "c")))
        elif roll < 0.7:
            names = tuple(d.name for d in _NFA_BEHAVIOURS)
            cond = BehaviourMatch(_NFA_BEHAVIOURS, random_pattern(rng, depth=3, behaviour_names=names))
        else:
            cond = SimpleMatch(rng.choice(schema), parse_pattern(rng.choice(_NFA_SHAPES)))
        pattern = compile_pattern(cond, schema)
        pairs.extend((pattern, es) for es in event_sets(log) if min_events <= len(es) <= max_events)
    return pairs[:count]


def test_listing_agrees_with_datalog_beyond_oracle_bound():
    # Past the oracle's bound, the Datalog translation is the reference: its
    # root relation is the listing's nonempty part, and a case is selected
    # when that relation is nonempty or the pattern holds on the empty segment.
    schema = ("event_name", "resource")
    corpus = _nfa_corpus(random.Random(17), 160, 20, 80)
    answers = []
    for p, es in corpus:
        rules = translate_pattern(p)
        program = DatalogProgram(tuple(rules), edb_predicates(schema))
        derived = evaluate(program, facts_from_log(EventLog(schema, es.events)))
        root = {(s, e) for s, e, _ in derived[rules[-1].head.pred]}
        listed = {(s.start, s.end) for s in satisfying_segments(p, es).segments if not s.is_empty}
        assert listed == root
        answers.append(case_satisfies(p, es))
        assert answers[-1] == (bool(root) or matches_empty(p.formula))
    assert 0 < sum(answers) < len(answers)


def test_nfa_agrees_with_oracle_on_short_cases():
    corpus = _nfa_corpus(random.Random(19), 1500, 1, 8)
    answers = [case_satisfies(p, es) for p, es in corpus]
    oracle = [oracle_satisfying_segments(p, es).segments for p, es in corpus]
    assert answers == [bool(segments) for segments in oracle]
    assert [satisfying_segments(p, es).segments for p, es in corpus] == oracle
    assert 0 < sum(answers) < len(answers)


def test_listing_holds_each_segment_once_in_presentation_order():
    # The listing keeps no segment set: spans yields each end position once
    # with a set of starts, so no pair can repeat. text() formats a case
    # with fewer segments than events per segment, any other per position;
    # the corpus reaches both.
    few = set()
    for p, es in _nfa_corpus(random.Random(19), 1500, 1, 8):
        result = satisfying_segments(p, es)
        few.add(len(result.keys) < len(result.timestamps))
        assert len(result.pairs) + result.empty == len(result.segments)
        keys = [(end - start, start) for start, end in result.pairs]
        assert keys == sorted(set(keys))
        by_span_start = sorted(result.segments, key=lambda s: (-1, -1) if s.is_empty else (s.end - s.start, s.start))
        assert result.ordered() == by_span_start
        assert result.text() == (", ".join(map(str, result.ordered())) or "none")
    assert few == {True, False}


def _count_leaf_tests(pattern):
    """Route each of the pattern's compiled leaf tests through a counter,
    returned as a one-element list."""
    calls = [0]

    def counted(test):
        def count(event):
            calls[0] += 1
            return test(event)
        return count

    leaf = pattern.leaf
    leaf[:] = [None if test is None else counted(test) for test in leaf]
    return calls


def _one_pass_cases():
    """One 2,000-event merged case without 'c', and the same case whose last
    event is its only 'c'; each paired with whether it holds a 'c'."""
    log = merge_cases(random_event_log(
        random.Random(23), cases=2000, max_events=1, schema=("event_name",), values=("a", "b", "d")
    ))
    *head, last = log.events
    with_c = EventLog(log.schema, (*head, Event(last.eid, last.cid, last.ts, (("event_name", "c"),))))
    pairs = [(event_sets(log)[0], False), (event_sets(with_c)[0], True)]
    assert all(len(es) == 2000 for es, _ in pairs)
    return pairs


_ONE_PASS_PATTERNS = [("('a' ~> 'b') ~> 'c'", 3), ("ANY* -> 'c'", 2)]


@pytest.mark.parametrize("text, leaves", _ONE_PASS_PATTERNS)
def test_case_satisfies_is_one_pass(monkeypatch, text, leaves):
    def no_segments(*args):
        raise AssertionError("case_satisfies built segments")

    monkeypatch.setattr(matcher, "satisfying_segments", no_segments)
    pattern = simple(text)
    calls = _count_leaf_tests(pattern)
    # Both cases are scanned to their last event: one ends in the only 'c'.
    for es, answer in _one_pass_cases():
        calls[0] = 0
        assert case_satisfies(pattern, es) is answer
        assert calls[0] <= len(es) * leaves


def _noted_cases(rename_d):
    """The cases of _one_pass_cases over the schema (event_name, note), with
    a new note on each event, and with each 'd' renamed to a value of its own
    when rename_d is set: no two events share an attrs tuple."""
    pairs = []
    for es, answer in _one_pass_cases():
        events = []
        for i, e in enumerate(es.events):
            name = e.attrs[0][1]
            attrs = (("event_name", f"d{i}" if rename_d and name == "d" else name), ("note", f"n{i}"))
            events.append(Event(e.eid, e.cid, e.ts, attrs))
        pairs.append((event_sets(EventLog(("event_name", "note"), tuple(events)))[0], answer))
    assert len({e.attrs for es, _ in pairs for e in es.events}) > 2000
    return pairs


def _unread_values_cases():
    return _noted_cases(rename_d=False)


def _read_values_cases():
    return _noted_cases(rename_d=True)


_SIMPLE_DFA_CONDITIONS = [
    *[(SimpleMatch("event_name", parse_pattern(text)), leaves, 1) for text, leaves in _ONE_PASS_PATTERNS],
    (SimpleMatch("event_name", parse_pattern("START (ANY) ~> 'c' END")), 1, 2),
]
_BEHAVIOUR_DFA_CONDITION = (
    BehaviourMatch(
        (BehaviourDef("a", (AttrEqConst("event_name", "a"),)), BehaviourDef("c", (AttrEqConst("event_name", "c"),))),
        Follows(Identifier(OrExpr(BehaviourRef("a"), NotExpr(BehaviourRef("c")))), Identifier(BehaviourRef("c"))),
    ),
    2,
    1,
)


@pytest.mark.parametrize(
    "condition, leaves, classes, make_cases",
    [
        (*condition, make_cases)
        for condition in _SIMPLE_DFA_CONDITIONS
        for make_cases in (_one_pass_cases, _unread_values_cases, _read_values_cases)
    ]
    + [(*_BEHAVIOUR_DFA_CONDITION, make_cases) for make_cases in (_one_pass_cases, _unread_values_cases)],
)
def test_case_satisfies_tests_leaves_per_dfa_transition(condition, leaves, classes, make_cases):
    # Selection runs leaf tests only while it builds a DFA transition, one per
    # (state, event class, table), so their number is bounded by the DFA's
    # size, not by the case's 2,000 events. An event's class is the value a
    # literal names, or None, so the pattern fixes the number of classes
    # whatever the log's values; in a BEHAVIOUR match it is the values of
    # the columns the behaviours read, so a column they do not read does not
    # raise it. A state has one table, or two (inner and last event) when
    # the pattern has END.
    cases = make_cases()
    pattern = compile_pattern(condition, tuple(name for name, _ in cases[0][0].events[0].attrs))
    calls = _count_leaf_tests(pattern)
    for es, answer in cases:
        assert case_satisfies(pattern, es) is answer
    nfa = pattern
    event_classes = {nfa.event_class(event.attrs) for es, _ in cases for event in es.events}
    assert len(event_classes) <= 4
    assert calls[0] <= 40
    assert nfa.dfa_cached <= len(nfa.dfa_states) * len(event_classes) * classes
    # classes counts the tables: without END, the last event's is the inner one.
    assert all(len({id(edges), id(last_edges)}) == classes for edges, last_edges, _ in nfa.dfa_states.values())
    assert calls[0] <= nfa.dfa_cached * leaves


def test_dfa_cache_limit_keeps_the_answers(monkeypatch):
    # Past the cache limit, a case that misses a transition is decided by the
    # listing's pass; at a limit of 0, 1 or 2 transitions most cases get
    # there, on every shape of the corpus (START / END, nested stars,
    # behaviours, nulls).
    # Besides the first event's state, a DFA state is made only with a cached
    # transition into it, so the limit bounds the states too.
    def corpus():
        return _nfa_corpus(random.Random(29), 1200, 1, 30)

    def states_bounded(pairs):
        return all(len(p.dfa_states) <= p.dfa_cached + 1 for p, _ in pairs)

    def tiny_corpus():
        # Every case of 0-3 events over two values, with START / END shapes
        # and a root star, against the listing's answer.
        schema = ("event_name",)
        shapes = (*_NFA_SHAPES, "ANY", "START (ANY) END", "START ('a') -> ANY", "'b' END", "ANY* END", "('a')*")
        cases = [
            EventSet("c", tuple(Event(f"e{i}", "c", i, (("event_name", v),)) for i, v in enumerate(values)))
            for n in range(4) for values in product("ab", repeat=n)
        ]
        return [(simple(text, schema=schema), es) for text in shapes for es in cases]

    def tiny_agrees(pairs):
        answers = [case_satisfies(p, es) for p, es in pairs]
        assert answers == [satisfying_segments(p, es).satisfied for p, es in pairs]
        return sum(answers)

    assert 0 < tiny_agrees(tiny_corpus()) < len(tiny_corpus())
    pairs = corpus()
    expected = [case_satisfies(p, es) for p, es in pairs]
    assert 0 < sum(expected) < len(expected)
    assert states_bounded(pairs)
    past_limit = [False]
    nfa_step = matcher.CompiledPattern._step

    def noted_step(self, *args):
        # With the cache full, NFA steps run only to finish a case.
        past_limit[0] |= self.dfa_cached >= matcher._DFA_CACHE_LIMIT
        return nfa_step(self, *args)

    monkeypatch.setattr(matcher.CompiledPattern, "_step", noted_step)
    for limit in (0, 1, 2):
        monkeypatch.setattr(matcher, "_DFA_CACHE_LIMIT", limit)
        pairs = corpus()
        answers, finished = [], 0
        for p, es in pairs:
            past_limit[0] = False
            answers.append(case_satisfies(p, es))
            finished += past_limit[0]
        assert answers == expected
        assert all(p.dfa_cached <= limit for p, _ in pairs)
        assert finished > len(pairs) // 2
        assert states_bounded(pairs)
        tiny = tiny_corpus()
        tiny_agrees(tiny)
        assert all(p.dfa_cached <= limit for p, _ in tiny)


_WIDE_QUERY = (
    "SELECT cid FROM eventlog WHERE BEHAVIOUR event_name = event_name AND resource = 'a' AS x, "
    "resource = 'b' AS y MATCHES (x -> y ~> x END)"
)


def test_full_dfa_cache_keeps_the_answers():
    # Every event has an event_name of its own, which x reads, so each event
    # is a class of its own and each misses the cache: the first 1,000 fill
    # it, at the default limit, and the listing's pass decides every later
    # case. The CI writes the same log to wide.csv for `sccq check`.
    rng = random.Random(1)
    events = tuple(
        Event(f"e{i}", f"c{i // 50:02}", i, (("event_name", f"n{i}"), ("resource", rng.choice("aab"))))
        for i in range(3000)
    )
    log = EventLog(("event_name", "resource"), events)
    query = parse_query(_WIDE_QUERY)
    pattern = compile_plan(query, log.schema).pattern_selections[0]
    sets = event_sets(log)
    answers = [case_satisfies(pattern, es) for es in sets]
    assert pattern.dfa_cached == matcher._DFA_CACHE_LIMIT == 1000
    assert answers == [satisfying_segments(pattern, es).satisfied for es in sets]
    assert 0 < sum(answers) < len(sets) == 60
    assert cross_check(query, log).equal


@pytest.mark.parametrize("text, leaves", _ONE_PASS_PATTERNS)
def test_satisfying_segments_is_one_pass(text, leaves):
    # A scan that restarts from every start position would test each leaf
    # up to once per (start, event) pair.
    pattern = simple(text)
    calls = _count_leaf_tests(pattern)
    for es, has_c in _one_pass_cases():
        calls[0] = 0
        listed = satisfying_segments(pattern, es).segments
        assert calls[0] <= len(es) * leaves
        assert bool(listed) is has_c
        assert all(s.end == es.timestamps[-1] for s in listed)
