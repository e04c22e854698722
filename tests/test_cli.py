import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FOUR_CSV, QUOTES_CSV
from sccq import cli, datalog, matcher
from sccq.cli import main
from sccq.eventlog import load_event_log
from sccq.parser import MAX_PATTERN_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_pretty(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys,
        "query",
        "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')",
        "--log", quotes_csv_path,
    )
    assert code == 0
    assert out.splitlines()[-1] == "(4 rows)"
    assert out.count("0002") == 4 and "0001" not in out


def test_query_csv_and_jsonl(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "query", "SELECT eid FROM eventlog WHERE status = 'SENT'",
        "--log", quotes_csv_path, "--format", "csv",
    )
    assert code == 0 and out.splitlines() == ["eid", "e0007"]
    code, out, _ = run(
        capsys, "query", "SELECT eid, ts FROM eventlog WHERE status = 'SENT'",
        "--log", quotes_csv_path, "--format", "jsonl",
    )
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {"eid": "e0007", "ts": 1675414104525}


def test_query_set_semantics(capsys, quotes_csv_path):
    _, out, _ = run(
        capsys, "query", "SELECT status FROM eventlog", "--log", quotes_csv_path,
        "--format", "csv",
    )
    assert out.splitlines()[1:] == ["NEW", "WIP", "WIP", "NEW", "WIP", "WIP", "SENT"]
    _, out, _ = run(
        capsys, "query", "SELECT status FROM eventlog", "--log", quotes_csv_path,
        "--format", "csv", "--set-semantics",
    )
    assert out.splitlines()[1:] == ["NEW", "WIP", "SENT"]


def test_query_explain(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "query", "SELECT eid FROM eventlog WHERE status = 'WIP'",
        "--log", quotes_csv_path, "--explain",
    )
    assert code == 0
    assert out.strip() == "π[eid](σ[status = 'WIP'](eventlog))"


def test_query_column_overrides(capsys, tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("ref,proc,when,note\nr1,p1,5,hello\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "query", "SELECT eid, note FROM eventlog",
        "--log", str(path), "--eid-col", "ref", "--cid-col", "proc", "--ts-col", "when",
        "--format", "csv",
    )
    assert code == 0 and out.splitlines()[1] == "r1,hello"


def test_match_listing_minimal_first(capsys, four_csv_path):
    code, out, _ = run(capsys, "match", "'e2' ~> 'e4'", "--log", four_csv_path)
    assert code == 0 and out == "c1: (20,90)\n"
    _, out, _ = run(capsys, "match", "ANY ~> 'e4'", "--log", four_csv_path)
    assert out == "c1: (30,90), (20,90), (10,90)\n"
    _, out, _ = run(capsys, "match", "('e2' ~> 'e4')*", "--log", four_csv_path)
    assert out == "c1: empty, (20,90)\n"
    _, out, _ = run(capsys, "match", "'nope'", "--log", four_csv_path)
    assert out == "c1: none\n"


def test_match_listing_orders_by_timestamp_span(capsys, tmp_path):
    # Uneven gaps: by index distance the order would be (0,1), (1,100),
    # (100,102), (0,100), (1,102), (0,102).
    log = tmp_path / "gaps.csv"
    log.write_text("eid,cid,ts,a\ne1,c,0,x\ne2,c,1,x\ne3,c,100,x\ne4,c,102,x\n", encoding="utf-8")
    code, out, _ = run(capsys, "match", "ANY ~> ANY", "--log", str(log))
    assert code == 0
    assert out == "c: (0,1), (100,102), (1,100), (0,100), (1,102), (0,102)\n"


def test_match_listing_closed_form_on_a_long_case(capsys, tmp_path):
    # (ANY ~> ANY) ~> ANY holds on exactly the segments of three or more
    # events: (n-1)(n-2)/2 of them, listed by (span, start). The second run
    # puts the timestamps at epoch milliseconds, so the listing's keys are
    # large integers.
    rng = random.Random(61)
    steps = [rng.choice((1, 2, 7, 40, 300)) for _ in range(59)]
    for offset in (0, 1_675_000_000_000):
        ts = [offset]
        for step in steps:
            ts.append(ts[-1] + step)
        log = tmp_path / "long.csv"
        log.write_text("eid,cid,ts,a\n" + "".join(f"e{i},c,{t},x\n" for i, t in enumerate(ts)), encoding="utf-8")
        n = len(ts)
        keys = sorted((ts[j] - ts[i], ts[i], ts[j]) for i in range(n) for j in range(i + 2, n))
        assert len(keys) == (n - 1) * (n - 2) // 2
        code, out, _ = run(capsys, "match", "(ANY ~> ANY) ~> ANY", "--log", str(log))
        assert code == 0
        assert out == "c: " + ", ".join(f"({start},{end})" for _, start, end in keys) + "\n"


def test_match_listing_builds_no_segment_set(capsys, monkeypatch, four_csv_path):
    # The listing prints from sorted keys: it builds neither a set of
    # segments nor a (start, end) tuple per segment.
    def no_segments(self):
        raise AssertionError("the listing built segments or pairs")

    monkeypatch.setattr(matcher.MatchResult, "segments", property(no_segments))
    monkeypatch.setattr(matcher.MatchResult, "pairs", property(no_segments))
    pairs = "c1: (10,20), (20,30), (10,30), (30,90), (20,90), (10,90)\n"
    for pattern, listing in (("('e2' ~> 'e4')*", "c1: empty, (20,90)\n"), ("ANY ~> ANY", pairs)):
        code, out, err = run(capsys, "match", pattern, "--log", four_csv_path)
        assert (code, out, err) == (0, listing, "")
        # Checking against the oracle compares the two results as values.
        code, out, err = run(capsys, "match", pattern, "--log", four_csv_path, "--oracle-bound", "4")
        assert (code, out, err) == (0, listing, "")


def test_match_attribute_flag(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "match", "'WIP' -> 'WIP'", "--log", quotes_csv_path, "--attribute", "status",
    )
    assert code == 0
    assert out.splitlines() == [
        "0001: (1675160180724,1675220315296)",
        "0002: (1675213914098,1675282027657)",
    ]


def test_match_log_without_attribute_column_exits_1(capsys, tmp_path):
    log = tmp_path / "bare.csv"
    log.write_text("eid,cid,ts\ne1,c1,10\n", encoding="utf-8")
    code, out, err = run(capsys, "match", "ANY", "--log", str(log))
    assert (code, out) == (1, "")
    assert err == f"error: {log} has no attribute column for the pattern to read\n"
    # A named attribute is still checked against the (empty) schema.
    code, _, err = run(capsys, "match", "ANY", "--log", str(log), "--attribute", "a")
    assert code == 1 and "attribute 'a' is not in the schema []" in err


def test_match_merge_cases_evenness(capsys, quotes_csv_path):
    # merged log has 7 events; an odd count cannot be covered by pairs
    code, out, _ = run(
        capsys, "match", "START ((ANY -> ANY)*) END", "--log", quotes_csv_path, "--merge-cases",
    )
    assert code == 0 and out == "merged: none\n"


def test_match_oracle_flag(capsys, monkeypatch, four_csv_path):
    code, out, err = run(
        capsys, "match", "'e1' -> ('e2' ~> 'e4')*", "--log", four_csv_path, "--oracle-bound", "10",
    )
    assert (code, out, err) == (0, "c1: (10,90)\n", "")
    code, _, err = run(
        capsys, "match", "ANY", "--log", four_csv_path, "--oracle-bound", "2",
    )
    assert code == 1 and "oracle bound" in err
    # An oracle that drops the longest segment disagrees with the listing.
    oracle = cli.oracle_satisfying_segments

    def drop_last(result):
        return matcher.MatchResult(result.timestamps, result.keys[:-1], result.empty)

    monkeypatch.setattr(
        cli, "oracle_satisfying_segments",
        lambda *args, **kwargs: drop_last(oracle(*args, **kwargs)),
    )
    code, out, err = run(capsys, "match", "ANY ~> 'e4'", "--log", four_csv_path, "--oracle-bound", "4")
    assert (code, out, err) == (3, "c1: (30,90), (20,90), (10,90)\n", "c1: ORACLE MISMATCH\n")


def test_match_oracle_checks_a_long_case(capsys, tmp_path):
    # The oracle's recursion follows the pattern's nesting, not the case's
    # length: a bound far above the default lists a 500-event case without
    # running out of stack.
    log = tmp_path / "deep.csv"
    log.write_text("eid,cid,ts,a\n" + "".join(f"e{i},c,{i},x\n" for i in range(500)), encoding="utf-8")
    code, out, err = run(capsys, "match", "START (ANY*) END", "--log", str(log), "--oracle-bound", "500")
    assert (code, out, err) == (0, "c: (0,499)\n", "")


def test_match_single_case(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "match", "'Review request' ~> 'Send quote'",
        "--log", quotes_csv_path, "--case", "0002",
    )
    assert code == 0
    assert out == "0002: (1675147138009,1675414104525)\n"
    code, _, err = run(
        capsys, "match", "ANY", "--log", quotes_csv_path, "--case", "nope",
    )
    assert code == 1 and "no case" in err


def test_query_from_file(capsys, tmp_path, quotes_csv_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("SELECT eid FROM eventlog\nWHERE status = 'SENT'\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "query", "--file", str(qfile), "--log", quotes_csv_path, "--format", "csv",
    )
    assert code == 0 and out.splitlines() == ["eid", "e0007"]
    # inline text and --file together are ambiguous; neither is an error too
    code, _, err = run(
        capsys, "query", "SELECT eid FROM eventlog", "--file", str(qfile),
        "--log", quotes_csv_path,
    )
    assert code == 1 and "not both" in err
    code, _, err = run(capsys, "query", "--log", quotes_csv_path)
    assert code == 1 and "missing query" in err
    code, out, _ = run(
        capsys, "check", "--file", str(qfile), "--log", quotes_csv_path,
    )
    assert code == 0 and out.startswith("EQUAL")


def test_translate(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "translate",
        "SELECT cid FROM eventlog WHERE event_name MATCHES ('Send quote')",
        "--log", quotes_csv_path,
    )
    assert code == 0
    assert out.splitlines()[0] == "output(C) :- event(C,E,T), p0(C)."  # the output reads the case alone
    assert 'attr_event_name(C,E,"Send quote")' in out
    assert "facts" not in out
    code, out, _ = run(
        capsys, "translate", "SELECT cid FROM eventlog", "--log", quotes_csv_path, "--with-facts",
    )
    assert code == 0
    assert 'event("0001","e0001",1675086864052).' in out
    program, facts = out.split("\n\n")
    assert program == "output(C) :- event(C,E,T)."  # no helper rule without a pattern
    # one successor fact per pair of consecutive events: 7 events in 2 cases
    assert facts.count("next(") == 5
    assert 'next("0002",1675147138009,1675213914098).' in facts


def test_query_that_can_never_match_translates_to_no_rule(capsys, quotes_csv_path):
    # x AND NOT (x) holds on no event, and no event has two event names: the
    # program has no rule, and both back ends select no row.
    behaviours = "SELECT cid FROM eventlog WHERE BEHAVIOUR event_name = {} AS x, event_name = {} AS y MATCHES ({})"
    contradiction = behaviours.format("'Send quote'", "'Send quote'", "NOT (NOT (x) OR x)")
    assert run(capsys, "translate", contradiction, "--log", quotes_csv_path) == (0, "\n", "")
    two_names = behaviours.format("'Send quote'", "'Review request'", "NOT (NOT (x) OR NOT (y)) ~> ANY")
    assert run(capsys, "translate", two_names, "--log", quotes_csv_path) == (0, "\n", "")
    for query in (contradiction, two_names):
        assert run(capsys, "check", query, "--log", quotes_csv_path) == (0, "EQUAL (0 distinct tuples)\n", "")


def test_log_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("eid,cid,ts,event_name\ne1,c1,10,a\ne2,c1,20,b\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    query = "SELECT eid FROM eventlog WHERE event_name MATCHES ('a' -> 'b')"
    code, out, err = run(capsys, "query", query, "--log", str(path), "--format", "csv")
    assert (code, err) == (0, "") and out.splitlines() == ["eid", "e1", "e2"]
    code, out, err = run(capsys, "check", query, "--log", str(path))
    assert (code, err) == (0, "") and out == "EQUAL (2 distinct tuples)\n"


def test_inputs_python_cannot_decode_exit_1(capsys, tmp_path):
    small = tmp_path / "small.csv"
    small.write_text("eid,cid,ts,a\ne1,c1,10,x\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"eid,cid,ts,event_name\ne1,c1,10,a\ne2,c1,20,caf\xe9\n")
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(latin1))
    assert code == 1 and f"{latin1}: line 3: byte 0xe9 is not UTF-8" in err
    query_file = tmp_path / "query.txt"
    query_file.write_bytes(b"SELECT eid\nFROM \xff")
    code, _, err = run(capsys, "query", "--file", str(query_file), "--log", str(small))
    assert code == 1 and f"{query_file}: line 2: byte 0xff is not UTF-8" in err

    many = "9" * 5000  # past the interpreter's int() conversion limit
    code, _, err = run(capsys, "query", f"SELECT eid FROM eventlog WHERE ts = {many}", "--log", str(small))
    assert code == 1 and "integer constant has too many digits at line 1, column 37" in err
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog WHERE ts = \u00b2", "--log", str(small))
    assert code == 1 and "unexpected character '\u00b2' at line 1, column 37" in err
    for ts in (many, "\u00b2"):
        small.write_text(f"eid,cid,ts,a\ne1,c1,{ts},x\n", encoding="utf-8")
        code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(small))
        assert code == 1 and "row 2: " in err


def test_csv_reader_errors_exit_1(capsys, tmp_path):
    # The csv module refuses a field longer than its field size limit.
    path = tmp_path / "wide.csv"
    path.write_text("eid,cid,ts,a\ne1,c1,10,x\ne2,c1,20," + "x" * 200_000 + "\n", encoding="utf-8")
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(path))
    assert code == 1 and "error: row 3: field larger than field limit" in err
    path.write_text("eid,cid," + "t" * 200_000 + "\n", encoding="utf-8")
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(path))
    assert code == 1 and "error: row 1: field larger than field limit" in err
    # Quoting is strict: a quote never closed does not swallow the rows after
    # it, and text after a closing quote is refused at its row.
    path.write_text('eid,cid,ts,a\n1,c,5,"abc\n2,c,6,x\n3,c,7,y\n', encoding="utf-8")
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(path))
    assert code == 1 and "error: row 2: unexpected end of data" in err
    path.write_text('eid,cid,ts,a\n1,c,5,x\n2,c,6,"abc"def\n', encoding="utf-8")
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", str(path))
    assert code == 1 and "error: row 3: " in err


def test_check_fixture_and_mismatch(capsys, quotes_csv_path, tmp_path, monkeypatch):
    query = "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')"
    code, out, _ = run(capsys, "check", query, "--log", quotes_csv_path)
    assert code == 0 and out.startswith("EQUAL")

    nullcsv = tmp_path / "null.csv"
    nullcsv.write_text("eid,cid,ts,a\ne1,c,1,\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "SELECT a FROM eventlog", "--log", str(nullcsv))
    assert (code, out) == (0, "EQUAL (1 distinct tuples)\n")

    # A Datalog side that loses the event facts derives no row at all.
    extract = datalog.facts_from_log
    monkeypatch.setattr(datalog, "facts_from_log", lambda log: {**extract(log), "event": set()})
    code, out, _ = run(capsys, "check", query, "--log", quotes_csv_path)
    assert code == 3
    assert out.splitlines() == [
        "MISMATCH: 1 tuples only in the relational result, 0 only in the datalog result",
        "  relational only: ('0002',)",
    ]

    # A Datalog side that gains an event of a case the log lacks derives a
    # row the relational side has not.
    ghost = ("ghost", "g1", 1)
    monkeypatch.setattr(datalog, "facts_from_log", lambda log: {**extract(log), "event": {ghost}})
    code, out, _ = run(capsys, "check", "SELECT cid FROM eventlog", "--log", quotes_csv_path)
    assert code == 3
    assert out.splitlines() == [
        "MISMATCH: 2 tuples only in the relational result, 1 only in the datalog result",
        "  relational only: ('0001',)",
        "  relational only: ('0002',)",
        "  datalog only:    ('ghost',)",
    ]


def test_attribute_predicate_collision_exits_1(capsys, tmp_path):
    path = tmp_path / "collide.csv"
    path.write_text("eid,cid,ts,a b,a_b\ne1,c1,10,x,y\n", encoding="utf-8")
    for command in ("translate", "check"):
        code, out, err = run(capsys, command, "SELECT eid FROM eventlog", "--log", str(path))
        assert (code, out) == (1, "")
        assert "attribute names collide as predicates: ['attr_a_b', 'attr_a_b']" in err


def test_check_random(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "--random", "10", "--seed", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "10/10 checks equal"

    # A Datalog side that loses the event facts derives no row, so every
    # pair with a non-empty relational result mismatches.
    extract = datalog.facts_from_log
    monkeypatch.setattr(datalog, "facts_from_log", lambda log: {**extract(log), "event": set()})
    code, out, _ = run(capsys, "check", "--random", "10", "--seed", "3")
    lines = out.strip().splitlines()
    mismatches = sum("MISMATCH" in line for line in lines[:-1])
    assert code == 3 and mismatches > 0
    assert lines[-1] == f"{10 - mismatches}/10 checks equal"


def test_check_random_rejects_a_query_or_log(capsys, tmp_path, quotes_csv_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("SELECT cid FROM eventlog", encoding="utf-8")
    for given in (
        ["SELECT cid FROM eventlog"],
        ["--file", str(qfile)],
        ["--log", quotes_csv_path],
        ["SELECT cid FROM eventlog", "--log", quotes_csv_path],
        ["--eid-col", "eid"],
        ["--cid-col", "cid"],
        ["--ts-col", "nope"],
        ["--strict-grammar"],
    ):
        code, out, err = run(capsys, "check", *given, "--random", "3")
        assert (code, out) == (1, ""), given
        assert err == "error: check takes a query and --log, or --random N, not both\n", given


def test_check_needs_arguments(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1 and "query" in err


def test_check_seed_needs_random(capsys, quotes_csv_path):
    for given in (["SELECT cid FROM eventlog", "--log", quotes_csv_path], []):
        code, out, err = run(capsys, "check", *given, "--seed", "7")
        assert (code, out) == (1, ""), given
        assert err == "error: check takes --seed only with --random N\n", given
    # Without --seed, --random draws its pairs from seed 0.
    assert run(capsys, "check", "--random", "3") == run(capsys, "check", "--random", "3", "--seed", "0")


def test_check_calls_cross_check_by_name(capsys, monkeypatch, quotes_csv_path):
    # The benchmark replaces cli.cross_check to keep each report, so cmd_check
    # must look the name up at each call rather than bind the back end's.
    by_log = ("check", "SELECT cid FROM eventlog", "--log", quotes_csv_path)
    by_seed = ("check", "--random", "2", "--seed", "1")
    expected = [run(capsys, *by_log), run(capsys, *by_seed)]
    reports = []
    original = cli.cross_check

    def recorded(query, log):
        reports.append(original(query, log))
        return reports[-1]

    monkeypatch.setattr(cli, "cross_check", recorded)
    assert run(capsys, *by_log) == expected[0]
    assert len(reports) == 1 and reports[0].summary() == expected[0][1].strip()
    assert run(capsys, *by_seed) == expected[1]
    assert len(reports) == 3


_LOADED_AFTER_EACH_STEP = """
import json, sys
from sccq.cli import main

log, iso_log = sys.argv[1:]
lazy = ("sccq.datalog", "sccq.gen", "datetime")
steps = []
for argv in (
    ["query", "SELECT cid FROM eventlog WHERE event_name MATCHES ('e1' ~> 'e2')", "--log", log],
    ["match", "'e1' ~> 'e2'", "--log", log],
    ["query", "SELECT cid FROM eventlog", "--log", iso_log],
    ["translate", "SELECT cid FROM eventlog", "--log", log],
):
    assert main(argv) == 0, argv
    steps.append([name for name in lazy if name in sys.modules])
print(json.dumps(steps))
"""


def test_query_and_match_load_no_datalog_generators_or_datetime(tmp_path, four_csv_path):
    iso_log = tmp_path / "iso.csv"
    iso_log.write_text("eid,cid,ts,event_name\ne1,c1,2023-01-30T12:00:00Z,e1\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_STEP, four_csv_path, str(iso_log)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [[], [], ["datetime"], ["sccq.datalog", "datetime"]]


def _option_help(capsys, command):
    """Each option's help line from `sccq <command> --help`, spacing collapsed."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    return {line.split()[0]: line for line in lines if line.startswith("--")}


def test_log_options_share_help_across_commands(capsys):
    shared = ("--file", "--log", "--eid-col", "--cid-col", "--ts-col", "--strict-grammar")
    query = _option_help(capsys, "query")
    assert all(len(query[opt].split()) > 2 for opt in shared)  # every option has help text
    for command in ("translate", "check"):
        assert {opt: _option_help(capsys, command)[opt] for opt in shared} == {opt: query[opt] for opt in shared}


def test_gen_deterministic_and_loadable(capsys):
    code, out1, _ = run(capsys, "gen", "--cases", "2", "--events", "4", "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--cases", "2", "--events", "4", "--seed", "9")
    assert out1 == out2
    log = load_event_log(out1)
    assert log.schema == ("event_name", "resource")
    assert len({e.cid for e in log.events}) == 2
    code, out3, _ = run(capsys, "gen", "--cases", "1", "--events", "2", "--attrs", "2", "--seed", "9")
    assert load_event_log(out3).schema == ("event_name", "resource", "attr1", "attr2")


def test_gen_zero_cases_header_only(capsys):
    code, out, _ = run(capsys, "gen", "--cases", "0")
    assert code == 0
    assert out.splitlines() == ["eid,cid,ts,event_name,resource"]
    assert load_event_log(out).events == ()


def test_exit_codes(capsys, quotes_csv_path):
    code, _, err = run(capsys, "query", "SELECT FROM eventlog", "--log", quotes_csv_path)
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "query", "SELECT nope FROM eventlog", "--log", quotes_csv_path)
    assert code == 1 and "nope" in err
    code, _, err = run(capsys, "query", "SELECT eid FROM eventlog", "--log", "/no/such/file.csv")
    assert code == 2
    code, _, err = run(capsys, "query", "SELECT AVG(ts) FROM eventlog", "--log", quotes_csv_path)
    assert code == 1 and "AVG" in err


def test_bad_usage_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["query"])  # missing required --log and query
    # Counts and bounds below 0 take the same path as a count that is not a number.
    for argv in (
        ["check", "--random", "abc"],
        ["check", "--random", "-1"],
        ["gen", "--cases", "-1"],
        ["gen", "--events", "-1"],
        ["gen", "--attrs", "-2"],
        ["match", "ANY", "--log", "x.csv", "--oracle-bound", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("command", ["query", "match", "translate", "check"])
def test_pattern_nesting_bound(capsys, four_csv_path, command):
    def parens(depth):
        return "(" * depth + "'e1'" + ")" * depth

    def chain(depth):
        return " ~> ".join(["'e1'"] * (depth + 1))

    prefix = "" if command == "match" else "SELECT cid FROM eventlog WHERE event_name MATCHES "
    bound = MAX_PATTERN_NESTING
    # Parsing stops at the group or the operator one level past the bound.
    for shape, before_stop in ((parens, "(" * bound), (chain, chain(bound) + " ")):
        code, _, err = run(capsys, command, prefix + shape(bound), "--log", four_csv_path)
        assert code == 0, err
        code, _, err = run(capsys, command, prefix + shape(bound + 1), "--log", four_csv_path)
        assert code == 1
        column = len(prefix + before_stop) + 1
        assert f"nested more than {bound} levels deep at line 1, column {column}" in err


# Starting points for the mutation fuzz test. Each construct of the grammar
# appears in some query, and the last inputs hold an integer longer than
# int() converts and bytes that are not UTF-8.
_FUZZ_QUERIES = (
    "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')",
    "SELECT eid, ts FROM eventlog WHERE status = 'SENT' AND cid = '0002' AND ts = 1675414104525",
    "SELECT cid, status FROM eventlog WHERE status MATCHES (START ('NEW' -> 'WIP'*) END)",
    "SELECT eid FROM eventlog WHERE BEHAVIOUR status = 'WIP' AS w, status = event_name AS n "
    "MATCHES (n ~> NOT (w) OR w)",
    "SELECT eid FROM eventlog WHERE event_name MATCHES ((ANY -> ANY)*) AND event_name = status",
    "SELECT eid FROM eventlog WHERE ts = " + "9" * 5000,
)
_FUZZ_PATTERNS = ("'e1' ~> 'e4'", "START ((ANY -> ANY)*) END", "NOT ('e1' OR 'e2')* -> ANY")
_FUZZ_LOGS = (
    QUOTES_CSV.encode(),
    FOUR_CSV.encode(),
    b"eid,cid,ts,a,b\n1,c,2,x,\n2,c,3,,y\n3,d,1970-01-01T00:00:01Z,x,x\n",
    b"eid,cid,ts,a\n1,c," + b"9" * 5000 + b",x\n2,c,5,\xff\n",
)
_QUERY_PIECES = (
    *"'\"()*~->,=:;!_ \n\t0123456789aeSTZ\\\x00\u00e9\u2192\u21dd\u00b2",
    "START", "END", "ANY", "NOT", "OR", "AND", "AS", "MATCHES", "BEHAVIOUR", "SELECT", "FROM", "WHERE",
)
_LOG_PIECES = (
    *(bytes([b]) for b in b",\n\r\"'abc019-:TZ"), b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\x00", b"\xc2\xb2",
)


def _mutate(rng, text, pieces):
    """One to four edits: delete, insert, repeat or replace a span, or cut."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(0, 8))
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:i] + rng.choice(pieces) + text[i:]
        elif edit == 2:
            text = text[:i] + text[i:j] * rng.randint(2, 5) + text[j:]
        elif edit == 3:
            text = text[:i] + rng.choice(pieces) + text[j:]
        else:
            text = text[:i]
    return text


def test_mutated_inputs_end_in_an_exit_code(capsys, tmp_path):
    rng = random.Random(5)
    path = tmp_path / "log.csv"
    codes = set()
    for _ in range(600):
        data = rng.choice(_FUZZ_LOGS)
        if rng.random() < 0.6:
            data = _mutate(rng, data, _LOG_PIECES)
        path.write_bytes(data)
        command = rng.choice(("query", "translate", "check", "match"))
        if command == "match":
            text, options = rng.choice(_FUZZ_PATTERNS), ["--oracle-bound", "6"]
        else:
            text, options = rng.choice(_FUZZ_QUERIES), []
        if rng.random() < 0.7:
            text = _mutate(rng, text, _QUERY_PIECES)
        # "--" ends the options, so a mutated text that starts with "-" is
        # still the query and not a usage error.
        argv = [command, "--log", str(path), *options, "--", text]
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{command} {text[:200]!r} on {data[:200]!r} raised {exc!r}")
        assert code in (0, 1, 2, 3), (argv, data)
        codes.add(code)
        capsys.readouterr()
    assert codes >= {0, 1}
