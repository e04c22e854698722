import json

import pytest

from sccq.cli import main
from sccq.eventlog import load_event_log


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


def test_match_attribute_flag(capsys, quotes_csv_path):
    code, out, _ = run(
        capsys, "match", "'WIP' -> 'WIP'", "--log", quotes_csv_path, "--attribute", "status",
    )
    assert code == 0
    assert out.splitlines() == [
        "0001: (1675160180724,1675220315296)",
        "0002: (1675213914098,1675282027657)",
    ]


def test_match_merge_cases_evenness(capsys, quotes_csv_path):
    # merged log has 7 events; an odd count cannot be covered by pairs
    code, out, _ = run(
        capsys, "match", "START ((ANY -> ANY)*) END", "--log", quotes_csv_path, "--merge-cases",
    )
    assert code == 0 and out == "merged: none\n"


def test_match_oracle_flag(capsys, four_csv_path):
    code, out, _ = run(
        capsys, "match", "'e1' -> ('e2' ~> 'e4')*", "--log", four_csv_path, "--oracle-bound", "10",
    )
    assert code == 0 and out == "c1: (10,90)\n"
    code, _, err = run(
        capsys, "match", "ANY", "--log", four_csv_path, "--oracle-bound", "2",
    )
    assert code == 1 and "oracle bound" in err


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
    assert out.splitlines()[0] == "output(C) :- event(C,E,T), p0(Ps0,Pe0,C)."
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


def test_log_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("eid,cid,ts,event_name\ne1,c1,10,a\ne2,c1,20,b\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    query = "SELECT eid FROM eventlog WHERE event_name MATCHES ('a' -> 'b')"
    code, out, err = run(capsys, "query", query, "--log", str(path), "--format", "csv")
    assert (code, err) == (0, "") and out.splitlines() == ["eid", "e1", "e2"]
    code, out, err = run(capsys, "check", query, "--log", str(path))
    assert (code, err) == (0, "") and out == "EQUAL (2 distinct tuples)\n"


def test_check_fixture_and_mismatch(capsys, quotes_csv_path, tmp_path):
    code, out, _ = run(
        capsys, "check",
        "SELECT case_id FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote')",
        "--log", quotes_csv_path,
    )
    assert code == 0 and out.startswith("EQUAL")

    nullcsv = tmp_path / "null.csv"
    nullcsv.write_text("eid,cid,ts,a\ne1,c,1,\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "SELECT a FROM eventlog", "--log", str(nullcsv))
    assert code == 3
    assert out.startswith("MISMATCH") and "relational only" in out


def test_check_random(capsys):
    code, out, _ = run(capsys, "check", "--random", "10", "--seed", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "10/10 checks equal"


def test_check_needs_arguments(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1 and "query" in err


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


def test_bad_usage_exits_via_argparse():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["query"])  # missing required --log and query
