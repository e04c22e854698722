import csv
import io
import json
import random
from dataclasses import replace

import pytest

from sccq.ast import AttrEqAttr, AttrEqConst, BehaviourMatch, SimpleMatch
from sccq.engine import ResultTable, compile_plan, execute, explain, resolve_column
from sccq.errors import SccError, UnknownColumn, UnknownSource
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
    assert ref.kind == "attr" and ref.name == "status"
    # an attribute named like an alias wins over the role
    assert resolve_column("timestamp", ("timestamp",)).kind == "attr"
    with pytest.raises(UnknownColumn, match="nope"):
        resolve_column("nope", schema)


def test_unknown_source(quotes_log):
    with pytest.raises(UnknownSource, match="'other'"):
        compile_plan(parse_query("SELECT eid FROM other"), quotes_log.schema)


def test_execute_refuses_a_pattern_compiled_for_another_schema():
    # Pattern leaves read attributes by schema position, so a plan answers
    # only on logs of the schema it was compiled for.
    plan = compile_plan(
        parse_query("SELECT cid FROM eventlog WHERE event_name MATCHES ('a')"), ("event_name", "resource")
    )
    permuted = EventLog(
        ("resource", "event_name"), (Event("e1", "c", 1, (("resource", "a"), ("event_name", "b"))),)
    )
    with pytest.raises(SccError, match="schema"):
        execute(plan, permuted)
    assert run("SELECT cid FROM eventlog WHERE event_name MATCHES ('a')", permuted).rows == ()


def test_execute_refuses_a_row_selection_compiled_for_another_schema():
    # A row selection reads its attribute by position in the plan's schema.
    plan = compile_plan(parse_query("SELECT cid FROM eventlog WHERE b = 'x'"), ("a", "b"))
    log = EventLog(("a",), (Event("e1", "c", 1, (("a", "x"),)),))
    with pytest.raises(SccError, match="schema"):
        execute(plan, log)


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


def test_execute_without_patterns_does_not_group(quotes_log, monkeypatch):
    import sccq.engine

    calls = []

    def counting(log):
        calls.append(log)
        return event_sets(log)

    monkeypatch.setattr(sccq.engine, "event_sets", counting)
    table = run("SELECT eid FROM eventlog WHERE status = 'SENT'", quotes_log)
    assert calls == []
    assert table.rows == (("e0007",),)


def test_execute_skips_later_patterns_for_failed_cases(quotes_log, monkeypatch):
    import sccq.engine

    calls = []
    original = sccq.engine.case_satisfies

    def counting(pattern, es):
        calls.append((pattern.attribute, es.cid))
        return original(pattern, es)

    monkeypatch.setattr(sccq.engine, "case_satisfies", counting)
    # Only case 0002 sends a quote; both cases go from NEW to WIP.
    table = run(
        "SELECT cid FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote') "
        "AND status MATCHES ('NEW' -> 'WIP')",
        quotes_log,
    )
    assert calls == [("event_name", "0001"), ("event_name", "0002"), ("status", "0002")]
    assert set(table.rows) == {("0002",)}
    # Four cases: each pattern filters the cases in order, so the second
    # meets each survivor of the first once, in case order.
    calls.clear()
    log = EventLog(("a", "b"), tuple(
        Event(f"e{i}", cid, i, (("a", a), ("b", b)))
        for i, (cid, a, b) in enumerate([
            ("c1", "x", "p"), ("c1", "y", "q"), ("c2", "y", "p"), ("c3", "x", "q"),
            ("c4", "x", "p"), ("c4", "z", "q"),
        ])
    ))
    table = run("SELECT cid FROM eventlog WHERE a MATCHES ('x') AND b MATCHES ('p' ~> 'q')", log, set_semantics=True)
    assert calls == [("a", "c1"), ("a", "c2"), ("a", "c3"), ("a", "c4"), ("b", "c1"), ("b", "c3"), ("b", "c4")]
    assert table.rows == (("c1",), ("c4",))


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
    mixed = ResultTable(("eid", "ts", "a"), (("café", 42, None),))
    assert mixed.to_jsonl() == '{"eid": "café", "ts": 42, "a": null}\n'
    pretty = table.to_pretty()
    assert pretty.splitlines()[-1] == "(2 rows)"
    assert "e2" in pretty


# The formatters as they were written row by row; the column-at-a-time ones
# must print exactly the same bytes.
def _csv_by_row(table):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(["" if v is None else v for v in row])
    return out.getvalue()


def _jsonl_by_row(table):
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = [encode(dict(zip(table.columns, row))) for row in table.rows]
    return "\n".join(lines) + ("\n" if lines else "")


def _pretty_by_row(table):
    cells = [[("" if v is None else str(v)) for v in row] for row in table.rows]
    widths = [len(c) for c in table.columns]
    for row in cells:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    head = "  ".join(name.ljust(widths[i]) for i, name in enumerate(table.columns))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(t.ljust(widths[i]) for i, t in enumerate(row)) for row in cells]
    return "\n".join([head, sep, *body, f"({len(table.rows)} rows)"])


_AWKWARD_TEXT = ("", "x", "a,b", 'say "hi"', "line\nbreak", "cr\rlf\r\n", "100%", "{x}", "café", "日本", "\t", "\\")


def _random_table(rng):
    width = rng.randint(1, 4)
    columns = tuple(rng.choice(("eid", "cid", "ts", "a", "b", "naïve", "a,b", '"q"')) for _ in range(width))
    kinds = [rng.choice(("text", "ts")) for _ in columns]

    def value(kind):
        if kind == "ts":
            return rng.randint(0, 10**13)
        if rng.random() < 0.2:
            return None
        return "".join(rng.choice(_AWKWARD_TEXT) for _ in range(rng.randint(0, 3)))

    rows = tuple(tuple(value(kind) for kind in kinds) for _ in range(rng.choice((0, 1, 2, 7))))
    return ResultTable(columns, rows)


def test_formats_match_the_row_by_row_formulas():
    rng = random.Random(61)
    tables = [_random_table(rng) for _ in range(400)]
    # Corner cases drawn rarely or never above: a lone null column, a repeated
    # name (a dict of the row keeps its first place and last value), no rows.
    tables += [
        ResultTable(("a",), ((None,), ("",))),
        ResultTable(("a", "ts", "a"), (("x", 1, None), (None, 2, "y"))),
        ResultTable(("eid", "a"), ()),
    ]
    assert any(len(set(t.columns)) < len(t.columns) for t in tables[:400])
    assert any(not t.rows for t in tables[:400])
    for table in tables:
        assert table.to_csv() == _csv_by_row(table), table
        assert table.to_jsonl() == _jsonl_by_row(table), table
        assert table.to_pretty() == _pretty_by_row(table), table


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
    # A selection between two columns names both as the query wrote them.
    plan = compile_plan(parse_query("SELECT eid FROM eventlog WHERE eid = case_id"), quotes_log.schema)
    assert explain(plan) == "π[eid](σ[eid = case_id](eventlog))"


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


def check_against_reference(rng, *, allow_null):
    for _ in range(120):
        log = random_event_log(rng, cases=rng.randint(1, 3), max_events=6, allow_null=allow_null)
        query = random_query(rng, log)
        if allow_null and rng.random() < 0.5:
            # random_query rarely draws two attributes; null never equals null
            extra = AttrEqAttr(rng.choice(log.schema), rng.choice(log.schema))
            query = replace(query, conditions=(*query.conditions, extra))
        got = execute(compile_plan(query, log.schema), log).rows
        expected = reference_execute(query, log)
        assert got == expected, f"{query} on {log}"


def test_engine_matches_reference_on_seeded_corpus():
    check_against_reference(random.Random(31), allow_null=False)


def test_engine_matches_reference_on_null_bearing_corpus():
    check_against_reference(random.Random(32), allow_null=True)
