import json
import random

import pytest

from sccq.ast import AttrEqAttr, AttrEqConst, BehaviourMatch, SimpleMatch
from sccq.engine import ResultTable, compile_plan, execute, explain, resolve_column
from sccq.errors import UnknownColumn, UnknownSource
from sccq.eventlog import Event, EventLog, event_sets
from sccq.gen import random_event_log, random_query
from sccq.matcher import compile_pattern, oracle_satisfying_segments
from sccq.parser import parse_query


def run(text, log, **kwargs):
    return execute(compile_plan(parse_query(text), log.schema), log, **kwargs)


def test_resolve_column_roles_and_attributes():
    schema = ("event_name", "status")
    assert resolve_column("eid", schema).kind == "eid"
    assert resolve_column("event_id", schema).kind == "eid"
    assert resolve_column("CASE_ID", schema).kind == "cid"
    assert resolve_column("event_time", schema).kind == "ts"
    ref = resolve_column("status", schema)
    assert ref.kind == "attr" and ref.attribute == "status"
    # an attribute named like an alias wins over the role
    assert resolve_column("timestamp", ("timestamp",)).kind == "attr"
    with pytest.raises(UnknownColumn, match="nope"):
        resolve_column("nope", schema)


def test_unknown_source(quotes_log):
    with pytest.raises(UnknownSource, match="'other'"):
        compile_plan(parse_query("SELECT eid FROM other"), quotes_log.schema)


def test_projection_only(quotes_log):
    table = run("SELECT event_name FROM eventlog", quotes_log)
    assert table.columns == ("event_name",)
    assert [v for (v,) in table.rows] == [
        "Review request",
        "Calculate terms",
        "Prepare contract",
        "Review request",
        "Define terms",
        "Prepare contract",
        "Send quote",
    ]


def test_pattern_condition_selects_whole_case(quotes_log):
    table = run(
        "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')",
        quotes_log,
    )
    assert table.rows == (("0002",),) * 4


def test_row_and_pattern_conditions_combine(quotes_log):
    table = run(
        "SELECT eid FROM eventlog WHERE status = 'WIP' "
        "AND event_name MATCHES ('Review request' ~> 'Send quote')",
        quotes_log,
    )
    assert table.rows == (("e0004",), ("e0006",))


def test_pattern_runs_on_original_case_rows(quotes_log):
    # the row filter must not hide events from the pattern: status = 'SENT'
    # keeps only e0007, yet the pattern still sees the full case
    table = run(
        "SELECT eid FROM eventlog WHERE status = 'SENT' "
        "AND event_name MATCHES ('Review request' ~> 'Send quote')",
        quotes_log,
    )
    assert table.rows == (("e0007",),)


def test_two_pattern_conditions_intersect_cases(quotes_log):
    table = run(
        "SELECT cid FROM eventlog WHERE event_name MATCHES ('Send quote') "
        "AND event_name MATCHES ('Calculate terms')",
        quotes_log,
    )
    assert table.rows == ()


def test_never_matching_literals_give_empty_table(quotes_log):
    table = run(
        "SELECT eid FROM eventlog WHERE event_name MATCHES ('package_sent' -> 'package_sent')",
        quotes_log,
    )
    assert table.rows == ()


def test_execute_groups_cases_once(quotes_log, monkeypatch):
    import sccq.engine

    calls = []

    def counting(log):
        calls.append(log)
        return event_sets(log)

    monkeypatch.setattr(sccq.engine, "event_sets", counting)
    table = run(
        "SELECT cid FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote') "
        "AND status MATCHES ('NEW' -> 'WIP')",
        quotes_log,
    )
    assert len(calls) == 1
    assert set(table.rows) == {("0002",)}


def test_const_equalities(quotes_log):
    assert run("SELECT eid FROM eventlog WHERE ts = 1675147138009", quotes_log).rows == (("e0002",),)
    # a quoted constant never equals a timestamp
    assert run("SELECT eid FROM eventlog WHERE ts = '1675147138009'", quotes_log).rows == ()
    assert run("SELECT eid FROM eventlog WHERE cid = '0001'", quotes_log).rows == (
        ("e0001",), ("e0003",), ("e0005",),
    )
    assert run("SELECT cid FROM eventlog WHERE eid = 'e0007'", quotes_log).rows == (("0002",),)
    # an unquoted integer against cid compares as text within the cid sort
    log = EventLog(("a",), (Event("e1", "2", 5, (("a", "x"),)),))
    assert run("SELECT eid FROM eventlog WHERE cid = 2", log).rows == (("e1",),)
    assert run("SELECT eid FROM eventlog WHERE cid = 2", quotes_log).rows == ()


def test_cross_sort_equality_is_false():
    # eid and cid share the text "x" but live in different sorts
    log = EventLog(("a",), (Event("x", "x", 1, (("a", "x"),)),))
    assert run("SELECT eid FROM eventlog WHERE eid = cid", log).rows == ()
    assert run("SELECT eid FROM eventlog WHERE a = a", log).rows == (("x",),)
    assert run("SELECT eid FROM eventlog WHERE eid = eid", log).rows == (("x",),)


def test_null_never_equal():
    log = EventLog(
        ("a", "b"),
        (
            Event("e1", "c", 1, (("a", None), ("b", None))),
            Event("e2", "c", 2, (("a", "v"), ("b", "v"))),
        ),
    )
    assert run("SELECT eid FROM eventlog WHERE a = b", log).rows == (("e2",),)
    assert run("SELECT eid FROM eventlog WHERE a = a", log).rows == (("e2",),)
    # projection keeps the null as None
    assert run("SELECT a FROM eventlog", log).rows == ((None,), ("v",))


def test_multiset_default_and_set_semantics(quotes_log):
    table = run("SELECT status FROM eventlog WHERE cid = '0001'", quotes_log)
    assert table.rows == (("NEW",), ("WIP",), ("WIP",))
    deduped = run("SELECT status FROM eventlog WHERE cid = '0001'", quotes_log, set_semantics=True)
    assert deduped.rows == (("NEW",), ("WIP",))  # first-occurrence order kept


def test_result_formats():
    table = ResultTable(("eid", "a"), (("e1", None), ("e2", "x,y")))
    assert table.to_csv().splitlines() == ["eid,a", "e1,", 'e2,"x,y"']
    lines = table.to_jsonl().splitlines()
    assert json.loads(lines[0]) == {"eid": "e1", "a": None}
    assert json.loads(lines[1]) == {"eid": "e2", "a": "x,y"}
    pretty = table.to_pretty()
    assert pretty.splitlines()[-1] == "(2 rows)"
    assert "e2" in pretty


def test_explain(quotes_log):
    plan = compile_plan(
        parse_query(
            "SELECT eid, status FROM eventlog WHERE status = 'WIP' AND event_name MATCHES (ANY*)"
        ),
        quotes_log.schema,
    )
    assert explain(plan) == "π[eid,status](σ[status = 'WIP'](σ_P[event_name: ANY*](eventlog)))"
    plan = compile_plan(
        parse_query(
            "SELECT case_id, event_name, event_time FROM eventlog"
            " WHERE event_name MATCHES ('package_sent' ~> 'package_accepted')"
        ),
        quotes_log.schema,
    )
    assert explain(plan) == (
        "π[case_id,event_name,event_time]"
        "(σ_P[event_name: 'package_sent' ~> 'package_accepted'](eventlog))"
    )


def test_explain_behaviour_pattern(quotes_log):
    plan = compile_plan(
        parse_query(
            "SELECT eid FROM eventlog WHERE BEHAVIOUR status = 'WIP' AS w MATCHES (w ~> w)"
        ),
        quotes_log.schema,
    )
    assert explain(plan) == "π[eid](σ_P[status = 'WIP' AS w: w ~> w](eventlog))"


# --- differential against a tiny independent evaluator -----------------------

def reference_execute(query, log):
    """Brute-force evaluation: oracle-based pattern selection, then manual
    row filtering and projection."""
    roles = {"eid": "eid", "event_id": "eid", "cid": "cid", "case_id": "cid",
             "ts": "ts", "timestamp": "ts", "event_time": "ts"}

    def tagged(ev, name):
        if name in log.schema:
            v = ev.value(name)
            return None if v is None else ("v", v)
        kind = roles[name.lower()]
        return {"eid": ("e", ev.eid), "cid": ("c", ev.cid), "ts": ("t", ev.ts)}[kind]

    def plain(ev, name):
        if name in log.schema:
            return ev.value(name)
        kind = roles[name.lower()]
        return {"eid": ev.eid, "cid": ev.cid, "ts": ev.ts}[kind]

    keep = {es.cid for es in event_sets(log)}
    for cond in query.conditions:
        if isinstance(cond, (SimpleMatch, BehaviourMatch)):
            compiled = compile_pattern(cond, log.schema)
            keep &= {
                es.cid
                for es in event_sets(log)
                if oracle_satisfying_segments(compiled, es).satisfied
            }
    rows = []
    for ev in log.events:
        if ev.cid not in keep:
            continue
        ok = True
        for cond in query.conditions:
            if isinstance(cond, AttrEqConst):
                want = ("t", cond.value) if (cond.attr.lower() in ("ts", "timestamp", "event_time")
                                             and cond.attr not in log.schema
                                             and isinstance(cond.value, int)) else ("v", str(cond.value))
                if cond.attr.lower() in ("eid", "event_id") and cond.attr not in log.schema:
                    want = ("e", str(cond.value))
                if cond.attr.lower() in ("cid", "case_id") and cond.attr not in log.schema:
                    want = ("c", str(cond.value))
                ok = ok and tagged(ev, cond.attr) == want
            elif isinstance(cond, AttrEqAttr):
                l, r = tagged(ev, cond.left), tagged(ev, cond.right)
                ok = ok and l is not None and r is not None and l == r
        if ok:
            rows.append(tuple(plain(ev, name) for name in query.projection))
    return tuple(rows)


def test_engine_matches_reference_on_seeded_corpus():
    rng = random.Random(31)
    for _ in range(120):
        log = random_event_log(rng, cases=rng.randint(1, 3), max_events=6)
        query = random_query(rng, log)
        got = execute(compile_plan(query, log.schema), log).rows
        expected = reference_execute(query, log)
        assert got == expected, f"{query} on {log}"
