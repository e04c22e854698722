import dataclasses
import io
import random

import pytest

from sccq.errors import BadTimestamp, KeyViolation, MalformedCsv
from sccq.eventlog import (
    EMPTY_SEGMENT,
    Event,
    EventLog,
    Segment,
    cases,
    enumerate_segments,
    event_sets,
    load_event_log,
    merge_cases,
    parse_timestamp,
    serialize_event_log,
)
from sccq.gen import random_event_log


def test_parse_timestamp_plain_millis():
    assert parse_timestamp("1675086864052") == 1675086864052
    assert parse_timestamp(" 42 ") == 42
    assert parse_timestamp("0") == 0


def test_parse_timestamp_iso():
    assert parse_timestamp("1970-01-01T00:00:00Z") == 0
    assert parse_timestamp("1970-01-01T00:00:01Z") == 1000
    assert parse_timestamp("2023-01-30T13:54:24.052+00:00") == 1675086864052
    # naive datetime reads as UTC
    assert parse_timestamp("1970-01-02T00:00:00") == 86_400_000


def test_parse_timestamp_edge_cases():
    with pytest.raises(BadTimestamp, match="too many digits"):
        parse_timestamp("9" * 5000)
    assert parse_timestamp(" 42 ") == 42
    assert parse_timestamp("\u0664\u0662") == 42  # Arabic-Indic digits
    assert parse_timestamp("+5") == 5
    with pytest.raises(BadTimestamp, match="negative timestamp '-5'"):
        parse_timestamp("-5")


@pytest.mark.parametrize("bad", ["", "  ", "-5", "not a date", "1969-12-31T00:00:00Z"])
def test_parse_timestamp_rejects(bad):
    with pytest.raises(BadTimestamp):
        parse_timestamp(bad)


def test_event_accessors():
    ev = Event("e1", "c1", 5, (("a", "x"), ("b", None)))
    assert ev.value("a") == "x"
    assert ev.value("b") is None
    assert ev.att() == ("x", None)
    with pytest.raises(KeyError):
        ev.value("missing")


def test_event_negative_ts():
    with pytest.raises(BadTimestamp):
        EventLog((), (Event("e1", "c1", -1, ()),))


def test_log_orders_events_canonically():
    evs = (
        Event("b", "c2", 10, ()),
        Event("a", "c1", 20, ()),
        Event("c", "c1", 10, ()),
    )
    log = EventLog((), evs)
    assert [e.eid for e in log.events] == ["c", "a", "b"]


def test_log_rejects_key_violations():
    with pytest.raises(KeyViolation):
        EventLog((), (Event("e1", "c1", 1, ()), Event("e1", "c1", 2, ())))
    with pytest.raises(KeyViolation):
        EventLog((), (Event("e1", "c1", 1, ()), Event("e2", "c1", 1, ())))
    # e1 and e3 share (c1, 5) but are not neighbours until the log is sorted
    apart = (Event("e1", "c1", 5, ()), Event("e2", "c2", 5, ()), Event("e3", "c1", 5, ()))
    with pytest.raises(KeyViolation, match=r"duplicate \(cid, ts\) pair \('c1', 5\)"):
        EventLog((), apart)
    # same eid in different cases is fine, as is same ts across cases
    EventLog((), (Event("e1", "c1", 1, ()), Event("e1", "c2", 1, ())))


def test_log_rejects_schema_mismatch_and_duplicate_schema():
    with pytest.raises(KeyViolation):
        EventLog(("a",), (Event("e1", "c1", 1, (("b", "x"),)),))
    with pytest.raises(MalformedCsv):
        EventLog(("a", "a"), ())


def test_log_checks_names_of_each_distinct_attrs_tuple():
    shared = (("a", "x"), ("b", None))
    events = [Event(f"e{i}", "c1", i, shared) for i in range(4)]
    EventLog(("a", "b"), tuple(events))
    swapped = Event("e9", "c1", 9, (("b", None), ("a", "x")))
    with pytest.raises(KeyViolation, match="'e9' attribute names"):
        EventLog(("a", "b"), (*events, swapped))


def test_restrict_keeps_whole_cases_without_rechecking(monkeypatch):
    log = random_event_log(random.Random(7), cases=6, max_events=5)
    kept = {"0001", "0004", "absent"}
    expected = EventLog(log.schema, tuple(e for e in log.events if e.cid in kept))
    assert expected.events

    def rebuilt(self):
        raise AssertionError("restrict sorted and checked the events again")

    # restrict sets these fields by hand and skips __init__; a new field
    # would be missing from every restricted log.
    assert [f.name for f in dataclasses.fields(EventLog)] == ["schema", "events"]
    monkeypatch.setattr(EventLog, "__post_init__", rebuilt)
    subset = log.restrict(kept)
    assert subset == expected
    assert log.restrict(set()).events == ()
    assert log.restrict(cases(log)) == log


def test_load_canonical_and_alias_headers(quotes_log):
    assert quotes_log.schema == ("event_name", "status")
    assert len(quotes_log.events) == 7
    canonical = load_event_log("eid,cid,ts,x\n1,c,5,v\n")
    assert canonical.events[0].value("x") == "v"


def test_load_explicit_column_names():
    log = load_event_log(
        "id,proc,when,note\n1,c,5,hello\n",
        eid_col="id",
        cid_col="proc",
        ts_col="when",
    )
    assert log.schema == ("note",)
    assert log.events[0].ts == 5


def test_load_errors():
    with pytest.raises(MalformedCsv, match="missing header"):
        load_event_log("")
    with pytest.raises(MalformedCsv, match="blank column"):
        load_event_log("eid,cid,ts,\n")
    with pytest.raises(MalformedCsv, match="no timestamp column"):
        load_event_log("eid,cid,when\n")
    with pytest.raises(MalformedCsv, match="ambiguous"):
        load_event_log("eid,cid,ts,timestamp\n")
    with pytest.raises(MalformedCsv, match="row 3"):
        load_event_log("eid,cid,ts\n1,c,5\n2,c\n")
    with pytest.raises(MalformedCsv, match="distinct"):
        load_event_log("eid,cid,ts\n1,c,5\n", eid_col="ts")
    with pytest.raises(BadTimestamp, match="row 2"):
        load_event_log("eid,cid,ts\n1,c,soon\n")


def test_empty_attr_field_is_null():
    log = load_event_log("eid,cid,ts,a\n1,c,5,\n")
    assert log.events[0].value("a") is None


def test_serialize_round_trip(quotes_log):
    text = serialize_event_log(quotes_log)
    assert text.splitlines()[0] == "eid,cid,ts,event_name,status"
    again = load_event_log(io.StringIO(text))
    assert again == quotes_log


def test_loaded_events_share_attrs_and_round_trip_with_nulls():
    log = random_event_log(random.Random(17), cases=5, max_events=6, values=("x", "y"), allow_null=True)
    assert any(None in ev.att() for ev in log.events)
    again = load_event_log(serialize_event_log(log))
    assert again == log
    by_fields = {}
    for ev in again.events:
        assert by_fields.setdefault(ev.att(), ev.attrs) is ev.attrs


def test_serialize_null_as_empty_field():
    log = EventLog(("a",), (Event("e1", "c1", 1, (("a", None),)),))
    assert serialize_event_log(log).splitlines()[1] == "e1,c1,1,"


def test_cases_and_case_events(quotes_log):
    assert cases(quotes_log) == frozenset({"0001", "0002"})
    sets = event_sets(quotes_log)
    assert [es.cid for es in sets] == ["0001", "0002"]
    assert [e.eid for e in sets[0].events] == ["e0001", "e0003", "e0005"]
    assert [e.eid for e in sets[1].events] == ["e0002", "e0004", "e0006", "e0007"]


def test_event_set_navigation(four_event_log):
    es = event_sets(four_event_log)[0]
    assert es.timestamps == (10, 20, 30, 90)
    assert es.successor(10) == 20
    assert es.successor(90) is None
    assert es.event_at(30).eid == "e3"


def test_enumerate_segments_count_and_order(four_event_log):
    segs = enumerate_segments(event_sets(four_event_log)[0])
    assert len(segs) == 10  # n(n+1)/2 for n=4
    assert segs[0] == Segment.interval(10, 10)
    assert segs[-1] == Segment.interval(90, 90)
    assert all(s.start <= s.end for s in segs)


def test_segment_invariants():
    assert EMPTY_SEGMENT.is_empty
    assert str(EMPTY_SEGMENT) == "empty"
    assert str(Segment.interval(3, 9)) == "(3,9)"
    # presentation order: empty first, then by (span, start)
    segs = [Segment.interval(10, 90), Segment.interval(30, 90), EMPTY_SEGMENT, Segment.interval(20, 90)]
    assert sorted(segs, key=Segment.sort_key) == [
        EMPTY_SEGMENT,
        Segment.interval(30, 90),
        Segment.interval(20, 90),
        Segment.interval(10, 90),
    ]


def test_merge_cases(quotes_log):
    merged = merge_cases(quotes_log)
    assert cases(merged) == frozenset({"merged"})
    assert [e.ts for e in merged.events] == [1, 2, 3, 4, 5, 6, 7]
    # global timestamp order interleaves the two cases
    assert [e.eid for e in merged.events] == [f"e000{i}" for i in range(1, 8)]
    assert merged.schema == quotes_log.schema


def test_merge_cases_eid_collision():
    log = EventLog((), (Event("x", "c1", 100, ()), Event("x", "c2", 200, ())))
    merged = merge_cases(log)
    assert [e.eid for e in merged.events] == ["x", "x_2"]


def test_merge_cases_idempotent(quotes_log):
    merged = merge_cases(quotes_log)
    assert merge_cases(merged) == merged


def test_merge_cases_empty_log():
    log = EventLog(("event_name",), ())
    merged = merge_cases(log)
    assert merged.events == ()
    assert merged.schema == ("event_name",)


def test_load_header_only_csv():
    log = load_event_log("event_id,case_id,timestamp,event_name\n")
    assert log.schema == ("event_name",)
    assert log.events == ()
    assert event_sets(log) == []
    assert load_event_log(serialize_event_log(log)) == log
