import copy
import csv
import gc
import hashlib
import io
import pickle
import random
from itertools import groupby

import pytest

from sccq.ast import SimpleMatch
from sccq.errors import BadTimestamp, KeyViolation, MalformedCsv
from sccq.eventlog import (
    EMPTY_SEGMENT,
    Event,
    EventLog,
    EventSet,
    Segment,
    cases,
    event_sets,
    load_event_log,
    merge_cases,
    parse_timestamp,
    serialize_event_log,
)
from sccq.gen import display_log, random_event_log, random_pair
from sccq.matcher import compile_pattern, pattern_select
from sccq.parser import parse_pattern, pretty_print


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


def test_log_checks_eids_per_case_run():
    # e1 of c1 twice, apart in the input (c1, c2, c1) and after sorting
    apart = (
        Event("e1", "c1", 1, ()),
        Event("e2", "c2", 1, ()),
        Event("e3", "c1", 2, ()),
        Event("e1", "c1", 3, ()),
    )
    with pytest.raises(KeyViolation, match=r"^duplicate \(eid, cid\) pair \('e1', 'c1'\)$"):
        EventLog((), apart)
    # the same eids in two interleaved cases
    log = EventLog((), tuple(Event(f"e{i // 2}", f"c{i % 2}", i, ()) for i in range(6)))
    assert [(e.cid, e.eid) for e in log.events] == [
        ("c0", "e0"), ("c0", "e1"), ("c0", "e2"), ("c1", "e0"), ("c1", "e1"), ("c1", "e2")
    ]
    # an event that repeats both keys of its neighbour reports (eid, cid)
    with pytest.raises(KeyViolation, match=r"duplicate \(eid, cid\) pair"):
        EventLog((), (Event("e1", "c1", 1, ()), Event("e1", "c1", 1, ())))


def test_ordered_log_is_kept_as_given():
    evs = tuple(Event(f"e{i}", f"c{i // 3}", i, ()) for i in range(9))
    log = EventLog((), evs)
    assert [es.events for es in event_sets(log)] == [evs[0:3], evs[3:6], evs[6:9]]


def test_first_fault_in_case_order_whatever_the_input_order():
    # e1 comes first in the input, but e2's case sorts first
    with pytest.raises(BadTimestamp, match=r"^event 'e2': negative timestamp -1$"):
        EventLog((), (Event("e1", "c2", -1, ()), Event("e2", "c1", -1, ())))


def _sort_then_check(schema, events):
    """The reference order of work: sort by (cid, ts), then check each event
    in that order and raise at its first fault."""
    ordered = tuple(sorted(events, key=lambda e: (e.cid, e.ts)))
    for k, (eid, cid, ts, attrs) in enumerate(ordered):
        prev = ordered[k - 1] if k and ordered[k - 1].cid == cid else None
        if ts < 0:
            raise BadTimestamp(f"event {eid!r}: negative timestamp {ts}")
        if tuple(name for name, _ in attrs) != schema:
            raise KeyViolation(f"event {eid!r} attribute names do not match schema {schema}")
        if prev and eid in {e.eid for e in ordered[:k] if e.cid == cid}:
            raise KeyViolation(f"duplicate (eid, cid) pair ({eid!r}, {cid!r})")
        if prev and ts == prev.ts:
            raise KeyViolation(f"duplicate (cid, ts) pair ({cid!r}, {ts})")
    return ordered


def test_one_pass_agrees_with_sorting_first():
    rng = random.Random(35)
    schema = ("a",)
    for n in range(5000):
        events = [
            Event(
                rng.choice("123"),
                rng.choice(("c1", "c2", "c3")),
                rng.choice((0, 1, 2, 3, 4, 5, -1) if rng.random() < 0.1 else (0, 1, 2, 3, 4, 5)),
                (("b", "x"),) if rng.random() < 0.03 else (("a", rng.choice(("x", None))),),
            )
            for _ in range(rng.randint(0, 8))
        ]
        if n % 2:
            rng.shuffle(events)
        else:
            events.sort(key=lambda e: (e.cid, e.ts))
        try:
            expected = _sort_then_check(schema, events)
        except (BadTimestamp, KeyViolation) as exc:
            with pytest.raises(type(exc)) as got:
                EventLog(schema, tuple(events))
            assert str(got.value) == str(exc), events
            continue
        log = EventLog(schema, tuple(events))
        assert log.events == expected
        assert event_sets(log) == [EventSet(cid, tuple(run)) for cid, run in groupby(log.events, key=lambda e: e.cid)]
        assert cases(log) == {e.cid for e in events}


def _parse_then_build(text):
    """The reference loader: parse every row, then build the EventLog, which
    sorts the events and checks their keys."""
    rows = csv.reader(io.StringIO(text), strict=True)
    header = next(rows)
    events = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            ts = parse_timestamp(row[2])
        except BadTimestamp as exc:
            raise BadTimestamp(f"row {lineno}: {exc}") from None
        events.append(Event(row[0], row[1], ts, tuple(zip(header[3:], [v or None for v in row[3:]]))))
    return EventLog(tuple(header[3:]), tuple(events))


def test_loader_proof_agrees_with_building_after_parsing():
    # A few eids, cids and timestamps, so keys repeat; even texts are in
    # (cid, ts) order, odd ones shuffled; a row in 50 has a bad timestamp,
    # which must be raised at its row even after a key fault.
    rng = random.Random(37)
    faults = set()
    for n in range(5000):
        rows = [
            (rng.choice("123"), rng.choice(("c1", "c2", "c3")),
             "x" if rng.random() < 0.02 else rng.choice("012345"), rng.choice(("x", "")))
            for _ in range(rng.randint(0, 8))
        ]
        if n % 2:
            rng.shuffle(rows)
        else:
            rows.sort(key=lambda r: (r[1], r[2]))
        lines = ["eid,cid,ts,a", *(",".join(r) for r in rows)]
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(1, len(lines)), "")
        text = "\n".join(lines) + "\n"
        try:
            expected = _parse_then_build(text)
        except (BadTimestamp, KeyViolation) as exc:
            with pytest.raises(type(exc)) as got:
                load_event_log(text)
            assert str(got.value) == str(exc), text
            faults.add(type(exc))
            continue
        log = load_event_log(text)
        assert log.events == expected.events, text
        assert event_sets(log) == event_sets(expected), text
    assert faults == {BadTimestamp, KeyViolation}


@pytest.fixture
def checking_passes(monkeypatch):
    """The length of the events of each call to EventLog's checking pass."""
    import sccq.eventlog

    calls = []
    original = sccq.eventlog._checked_starts

    def counting(schema, events):
        calls.append(len(events))
        return original(schema, events)

    monkeypatch.setattr(sccq.eventlog, "_checked_starts", counting)
    return calls


def test_building_a_log_makes_one_checking_pass(checking_passes):
    ordered = (Event("e1", "c1", 1, ()), Event("e2", "c1", 2, ()), Event("e1", "c2", 1, ()))
    faulty = (Event("e1", "c1", 1, ()), Event("e1", "c1", 2, ()))
    EventLog((), ordered)
    EventLog((), ordered[::-1])
    with pytest.raises(KeyViolation):
        EventLog((), faulty[::-1])
    assert checking_passes == [3, 3, 2]


def test_loading_ordered_csv_makes_no_second_pass(checking_passes):
    # The eids of c1 again in c2: (eid, cid) is checked within each case.
    load_event_log("eid,cid,ts,a\ne1,c1,1,x\ne2,c1,2,\ne1,c2,1,y\ne2,c2,4,y\n")
    assert checking_passes == []
    # A descent leaves the events to EventLog, which sorts them and checks once.
    log = load_event_log("eid,cid,ts,a\ne1,c2,1,x\ne2,c1,2,\n")
    assert checking_passes == [2]
    assert [e.cid for e in log.events] == ["c1", "c2"]


def test_proven_log_is_the_publicly_built_one():
    text = "eid,cid,ts,a,b\ne1,c1,1,x,\ne2,c1,5,y,z\ne1,c2,3,x,\n"
    loaded = load_event_log(text)
    built = EventLog(loaded.schema, loaded.events)
    assert loaded == built and hash(loaded) == hash(built)
    assert repr(loaded) == repr(built) and str(loaded) == str(built)
    assert loaded._starts == built._starts == [0, 2]
    assert event_sets(loaded) == event_sets(built)
    with pytest.raises(MalformedCsv, match=r"^duplicate attribute names in schema \('a', 'a'\)$"):
        load_event_log("eid,cid,ts,a,a\ne1,c1,1,x,y\n")


def test_event_set_is_a_value_of_its_case():
    evs = (Event("e1", "c1", 4, ()), Event("e2", "c1", 9, ()))
    es = EventSet("c1", evs)
    assert (es.cid, es.events, len(es), es.timestamps) == ("c1", evs, 2, (4, 9))
    assert es == EventSet("c1", evs) and hash(es) == hash(EventSet("c1", evs))
    assert es != EventSet("c2", evs) and es != EventSet("c1", evs[:1])
    assert repr(es) == f"EventSet(cid='c1', events={evs!r})"
    assert copy.copy(es) == pickle.loads(pickle.dumps(es)) == es
    assert not EventSet("c1", ())


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
    # An exact match comes first; without one, the first name equal but for
    # case is taken.
    text = "Ref,ref,Proc,WHEN\nR1,r1,c,5\n"
    log = load_event_log(text, eid_col="ref", cid_col="proc", ts_col="when")
    assert log.schema == ("Ref",)
    assert log.events[0][:3] == ("r1", "c", 5)
    log = load_event_log(text, eid_col="REF", cid_col="PROC", ts_col="When")
    assert log.schema == ("ref",)
    assert log.events[0][:3] == ("R1", "c", 5)
    with pytest.raises(MalformedCsv) as exc:
        load_event_log(text, eid_col="ref", cid_col="case", ts_col="when")
    assert str(exc.value) == "case id column 'case' not found in header ['Ref', 'ref', 'Proc', 'WHEN']"


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
    with pytest.raises(MalformedCsv, match="row 3 has 1 fields"):
        load_event_log("eid,cid,ts\n1,c,5\n2\n")
    with pytest.raises(MalformedCsv, match="distinct"):
        load_event_log("eid,cid,ts\n1,c,5\n", eid_col="ts")
    with pytest.raises(BadTimestamp, match="row 2"):
        load_event_log("eid,cid,ts\n1,c,soon\n")


# 3,000 events, past the collector's youngest threshold (700 on 3.10-3.12),
# some with a null value and one with an ISO-8601 timestamp.
LARGE_ROWS = ["eid,cid,ts,a,b", "e0,c0,1970-01-01T00:00:00Z,x,"]
LARGE_ROWS += [f"e{i},c{i % 300},{i},v{i % 7},{'' if i % 5 else 'y'}" for i in range(1, 3000)]


def large_csv(row3000: str | None = None) -> str:
    """The large log, with its row 3,000 (its 2,999th event) replaced."""
    rows = LARGE_ROWS if row3000 is None else [*LARGE_ROWS[:2999], row3000, *LARGE_ROWS[3000:]]
    return "\n".join(rows) + "\n"


@pytest.fixture
def collector():
    """Leaves the cyclic collector switched on or off as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    assert len(load_event_log(large_csv()).events) == 3000
    assert gc.isenabled() is enabled
    failures = {
        "e2998,c298,soon,x,": (BadTimestamp, "^row 3000: cannot parse timestamp 'soon'$"),
        "e2998,c298": (MalformedCsv, "^row 3000 has 2 fields, header has 5$"),
        "e2997,c297,2997,x,": (KeyViolation, r"^duplicate \(eid, cid\) pair \('e2997', 'c297'\)$"),
    }
    for row, (error, message) in failures.items():
        with pytest.raises(error, match=message):
            load_event_log(large_csv(row))
        assert gc.isenabled() is enabled


def test_large_load_starts_no_collection(collector):
    gc.enable()
    text = large_csv()
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        # The same rows, read without the pause, start a collection.
        rows = list(csv.reader(io.StringIO(text)))
        assert starts
        del rows
        gc.collect()  # no collection is due as the load starts
        starts.clear()
        log = load_event_log(text)
    finally:
        gc.callbacks.remove(record)
    assert starts == []
    assert len(log.events) == 3000


def test_loaded_values_hold_no_cycles(collector):
    # The pause relies on this: reference counting alone frees a loaded log.
    parse_timestamp("1970-01-01T00:00:00Z")  # its first call imports datetime
    text = large_csv()
    gc.collect()
    log = load_event_log(text)
    assert log.events[0].value("b") is None
    del log
    assert gc.collect() == 0


def test_load_timestamp_paths():
    text = "eid,cid,ts\n1,c,0\n2,c, 42 \n3,c,+5\n4,c,1970-01-01T00:00:01Z\n5,c,\u0664\u0663\n"
    assert [e.ts for e in load_event_log(text).events] == [0, 5, 42, 43, 1000]
    with pytest.raises(BadTimestamp, match=r"^row 3: timestamp of 5000 characters has too many digits$"):
        load_event_log("eid,cid,ts\n1,c,5\n2,c," + "9" * 5000 + "\n")
    with pytest.raises(BadTimestamp, match=r"^row 2: negative timestamp '-5'$"):
        load_event_log("eid,cid,ts\n1,c,-5\n")
    # a blank line is a record: skipped, but counted
    with pytest.raises(MalformedCsv, match=r"^row 4 has 2 fields, header has 3$"):
        load_event_log("eid,cid,ts\n1,c,5\n\n2,c\n")


def test_loaded_events_are_events():
    log = load_event_log("eid,cid,ts,a,b\n1,c,5,x,\n2,c,7,y,z\n")
    for e in log.events:
        assert type(e) is Event
        assert e == Event(*e)
        assert e._asdict() == {"eid": e.eid, "cid": "c", "ts": e.ts, "attrs": e.attrs}
    assert [(e.value("a"), e.value("b")) for e in log.events] == [("x", None), ("y", "z")]


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


def test_generators_share_attrs_and_draw_the_same_logs():
    log = display_log(random.Random(1), cases=40, max_events=20)
    by_fields = {}
    for ev in log.events:
        assert by_fields.setdefault(ev.att(), ev.attrs) is ev.attrs
    # The text of fixed seeds, pinned before the generators shared their
    # attrs tuples: sharing draws nothing from the generator.
    parts = []
    for seed in range(20):
        query, pair_log = random_pair(random.Random(seed))
        parts += [pretty_print(query), serialize_event_log(pair_log)]
        parts.append(serialize_event_log(random_event_log(random.Random(seed), cases=4, allow_null=True)))
        parts.append(serialize_event_log(display_log(random.Random(seed), cases=4, extra_attrs=2)))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "4ca2ca98213b5756fe46290fa42cbb810aa3d7a848d87fb4c24e72c1cdb3fc0f"


def test_serialize_null_as_empty_field():
    log = EventLog(("a",), (Event("e1", "c1", 1, (("a", None),)),))
    assert serialize_event_log(log).splitlines()[1] == "e1,c1,1,"


def test_cases_and_case_events(quotes_log, four_event_log):
    assert cases(quotes_log) == frozenset({"0001", "0002"})
    assert event_sets(four_event_log)[0].timestamps == (10, 20, 30, 90)
    sets = event_sets(quotes_log)
    assert [es.cid for es in sets] == ["0001", "0002"]
    assert [e.eid for e in sets[0].events] == ["e0001", "e0003", "e0005"]
    assert [e.eid for e in sets[1].events] == ["e0002", "e0004", "e0006", "e0007"]


def test_segment_invariants():
    assert EMPTY_SEGMENT.is_empty
    assert str(EMPTY_SEGMENT) == "empty"
    assert str(Segment.interval(3, 9)) == "(3,9)"


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


@pytest.mark.parametrize("events", [
    (),
    (Event("e1", "c1", 5, (("a", "x"),)), Event("e2", "c1", 7, (("a", None),))),
    # a and a collide, and the renamed a_2 then collides with the third a_2,
    # which becomes a_2_3
    (Event("a", "c1", 1, (("a", "x"),)), Event("a", "c2", 2, (("a", "x"),)), Event("a_2", "c3", 3, (("a", "y"),))),
])
def test_merged_log_is_built_proven(checking_passes, events):
    log = EventLog(("a",), events)
    checking_passes.clear()
    merged = merge_cases(log)
    assert checking_passes == []
    built = EventLog(merged.schema, merged.events)
    assert merged == built and hash(merged) == hash(built) and repr(merged) == repr(built)
    assert merged._starts == built._starts == ([0] if events else [])
    assert event_sets(merged) == event_sets(built)


@pytest.mark.parametrize("pattern, kept", [
    ("'x' ~> 'y'", ["c1", "c3"]),
    ("'z'", []),
    ("ANY", ["c1", "c2", "c3"]),
])
def test_pattern_select_is_built_proven(checking_passes, pattern, kept):
    # pattern_select filters a checked log: the kept case runs are in order
    # with distinct keys, so it builds its log from them with no checking pass.
    rows = [("c1", "x"), ("c1", "y"), ("c2", "y"), ("c2", "x"), ("c3", "x"), ("c3", None), ("c3", "y")]
    log = EventLog(("a",), tuple(Event(f"e{i}", c, i, (("a", v),)) for i, (c, v) in enumerate(rows)))
    checking_passes.clear()
    selected = pattern_select(compile_pattern(SimpleMatch("a", parse_pattern(pattern)), log.schema), log)
    assert checking_passes == []
    built = EventLog(selected.schema, selected.events)
    assert selected == built and hash(selected) == hash(built) and repr(selected) == repr(built)
    assert selected._starts == built._starts
    assert event_sets(selected) == event_sets(built)
    assert [es.cid for es in event_sets(selected)] == kept


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
