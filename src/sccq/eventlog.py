"""Event-log data model and CSV ingestion.

An event log is a single flat relation of events. Every event carries an
event id, a case id, a timestamp and one value (possibly null) per schema
attribute. Two key candidates hold: (eid, cid) and (cid, ts). Within one
case timestamps are therefore unique, which totally orders the case.

Timestamps are integer epoch milliseconds everywhere inside the package;
ISO-8601 text is converted once at ingestion.

Every EventLog holds its events in (cid, ts) order with their keys
checked, and where each case's run starts. For events from any source,
EventLog sorts them by (cid, ts) and then checks them in one pass that
records the runs: (eid, cid) is checked against the eids of the current run
only, and (cid, ts) against the previous event. The pass raises at the
first fault, so the error raised is the first fault in (cid, ts) order.
Event, EventSet and Segment are immutable values derived from it and are
not checked again.

``load_event_log`` streams the CSV and takes one step per row: check the
field count, read the timestamp (plain digits through ``int`` directly,
anything else through ``parse_timestamp``), look up the row's attrs tuple
and build the Event as a plain tuple of its four fields. The same step
proves the order and the keys, so a CSV in (cid, ts) order with no
repeated key is walked once: sorting it would change nothing and EventLog's
check would pass, so its log is built without either. At the first row
that descends or repeats a key, the loader stops proving, reads on, and
hands the events to EventLog, which sorts and checks them and reports the
first fault in (cid, ts) order. Events loaded from CSV share their
``attrs`` tuples: all events whose attribute fields are equal hold one
and the same tuple, so a log of many events over few distinct attribute
combinations builds, and name-checks, each combination once. From the
first data row until the EventLog is built, including its key checks,
``load_event_log`` pauses CPython's cyclic garbage collector, which would
otherwise re-scan the growing list of events many times. This is safe
because every value it builds (strings, ints, Event and attrs tuples) is
acyclic, so reference counting alone frees it. The switch is process-wide:
for the length of one load no thread's cyclic garbage is collected. The
caller's setting is restored on return and on every error, so a caller
that had the collector off keeps it off.
"""

from __future__ import annotations

import csv
import gc
import io
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, TextIO

from .errors import BadTimestamp, KeyViolation, MalformedCsv

# Case-insensitive header names accepted for the three fixed column roles.
EID_ALIASES = ("eid", "event_id")
CID_ALIASES = ("cid", "case_id")
TS_ALIASES = ("ts", "timestamp", "event_time")


def parse_timestamp(text: str) -> int:
    """Parse a timestamp field into epoch milliseconds.

    Accepts a non-negative decimal integer (already milliseconds) or an
    ISO-8601 date/datetime. Naive datetimes are read as UTC.
    """
    raw = text.strip()
    if not raw:
        raise BadTimestamp("empty timestamp field")
    body = raw[1:] if raw[0] in "+-" else raw
    if not body.isdecimal():
        return _iso_millis(raw)
    try:
        value = int(raw)
    except ValueError:  # longer than the interpreter converts
        raise BadTimestamp(f"timestamp of {len(raw)} characters has too many digits") from None
    if value < 0:
        raise BadTimestamp(f"negative timestamp {raw!r}")
    return value


def _iso_millis(raw: str) -> int:
    # Imported here: a log of integer timestamps never loads datetime.
    from datetime import datetime, timezone

    iso = raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw
    try:
        moment = datetime.fromisoformat(iso)
    except ValueError:
        raise BadTimestamp(f"cannot parse timestamp {raw!r}") from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    millis = round(moment.timestamp() * 1000)
    if millis < 0:
        raise BadTimestamp(f"timestamp {raw!r} is before the epoch")
    return millis


class Event(NamedTuple):
    """One event row. ``attrs`` is an ordered (name, value) mapping; a value
    of None is the null marker."""

    eid: str
    cid: str
    ts: int
    attrs: tuple[tuple[str, str | None], ...]

    def value(self, name: str) -> str | None:
        for key, val in self.attrs:
            if key == name:
                return val
        raise KeyError(name)

    def att(self) -> tuple[str | None, ...]:
        """The event's attribute tuple, in schema order."""
        return tuple(val for _, val in self.attrs)


_CID_TS = itemgetter(1, 2)  # an Event's (cid, ts)


def _checked_starts(schema: tuple[str, ...], events: tuple[Event, ...]) -> list[int]:
    """Check the keys of `events`, sorted by (cid, ts), and return where each
    case's run starts. The first fault in that order is raised."""
    # The names of an attrs tuple are checked the first time that object
    # occurs; loaded events share one tuple per distinct combination of
    # values, and `events` keeps every tuple, so no id is reused.
    named: set[int] = set()
    starts: list[int] = []
    # Each case is one run: eids holds the run's event ids so far, and equal
    # (cid, ts) pairs are side by side.
    eids: set[str] = set()
    prev_cid = prev_ts = None
    for i, (eid, cid, ts, attrs) in enumerate(events):
        if ts < 0:
            raise BadTimestamp(f"event {eid!r}: negative timestamp {ts}")
        if id(attrs) not in named:
            if tuple(name for name, _ in attrs) != schema:
                raise KeyViolation(f"event {eid!r} attribute names do not match schema {schema}")
            named.add(id(attrs))
        if cid != prev_cid:
            starts.append(i)
            eids = {eid}
            prev_cid = cid
        elif eid in eids:
            raise KeyViolation(f"duplicate (eid, cid) pair ({eid!r}, {cid!r})")
        elif ts == prev_ts:
            raise KeyViolation(f"duplicate (cid, ts) pair ({cid!r}, {ts})")
        else:
            eids.add(eid)
        prev_ts = ts
    return starts


@dataclass(frozen=True)
class EventLog:
    """Immutable event log. Events are kept in canonical (cid, ts) order and
    the key candidates are enforced at construction time: the events are
    sorted by (cid, ts), then checked in one pass that raises the first
    fault in that order. load_event_log, which proves order and keys as it
    reads, and merge_cases, which builds one case in order with distinct
    keys, make their logs through _proven, without the sort and the check."""

    schema: tuple[str, ...]
    events: tuple[Event, ...]
    _starts: list[int] = field(init=False, repr=False, compare=False)  # each case run's first index

    def __post_init__(self) -> None:
        schema = _distinct_names(tuple(self.schema))
        events = tuple(sorted(self.events, key=_CID_TS))
        self._set(schema, events, _checked_starts(schema, events))

    @classmethod
    def _proven(cls, schema: tuple[str, ...], events: tuple[Event, ...], starts: list[int]) -> EventLog:
        """The log of events already in (cid, ts) order that would pass
        _checked_starts, keys and attrs names alike, whose case runs start at
        `starts`. Only the schema's names are checked."""
        log = object.__new__(cls)
        log._set(_distinct_names(schema), events, starts)
        return log

    def _set(self, schema: tuple[str, ...], events: tuple[Event, ...], starts: list[int]) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_starts", starts)


def _distinct_names(schema: tuple[str, ...]) -> tuple[str, ...]:
    if len(set(schema)) != len(schema):
        raise MalformedCsv(f"duplicate attribute names in schema {schema}")
    return schema


class EventSet(NamedTuple):
    """All events of one case, ascending by timestamp: a run of an
    EventLog's ordered events. The matcher names a segment by the positions
    of its first and last events in ``events``.

    event_sets builds one per case with tuple.__new__, which calls no Python
    function. Its length is its number of events, not of fields, so the
    length-checking _make and _replace do not apply to it."""

    cid: str
    events: tuple[Event, ...]

    def __len__(self) -> int:
        return len(self[1])

    @property
    def timestamps(self) -> tuple[int, ...]:
        return tuple(e.ts for e in self[1])


class Segment(NamedTuple):
    """A contiguous stretch of one case's timeline, named by its endpoint
    timestamps (start <= end), or the distinguished empty segment (both
    endpoints None)."""

    start: int | None
    end: int | None

    @staticmethod
    def interval(start: int, end: int) -> "Segment":
        return Segment(start, end)

    @property
    def is_empty(self) -> bool:
        return self.start is None

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        return f"({self.start},{self.end})"


EMPTY_SEGMENT = Segment(None, None)


def _resolve_role(header: list[str], wanted: str | None, aliases: tuple[str, ...], role: str) -> int:
    if wanted is not None:
        for i, name in enumerate(header):
            if name == wanted:
                return i
        for i, name in enumerate(header):
            if name.lower() == wanted.lower():
                return i
        raise MalformedCsv(f"{role} column {wanted!r} not found in header {header}")
    hits = [i for i, name in enumerate(header) if name.lower() in aliases]
    if not hits:
        raise MalformedCsv(f"no {role} column found in header {header}; pass one explicitly")
    if len(hits) > 1:
        raise MalformedCsv(f"ambiguous {role} column in header {header}; pass one explicitly")
    return hits[0]


def load_event_log(
    source: str | TextIO,
    *,
    eid_col: str | None = None,
    cid_col: str | None = None,
    ts_col: str | None = None,
) -> EventLog:
    """Read an RFC-4180 CSV stream into an EventLog.

    The three role columns are located by the given header names, or by the
    usual aliases (event_id/eid, case_id/cid, timestamp/ts/event_time) when
    not given. Every remaining column becomes a schema attribute, in header
    order. Empty attribute fields ingest as null. Quoting is strict: text
    after a quoted field's closing quote, or a quote never closed, is an
    error at its row; a quote inside an unquoted field is text.

    The row loop proves the (cid, ts) order and both keys. Events that pass
    make the EventLog without its sort and check; at the first descent or
    repeated key the loop reads on and EventLog sorts and checks the
    events, so a row error still comes at its row and a key error is the
    one EventLog reports.

    The cyclic garbage collector is paused from the first data row until
    the EventLog is built: the values built are acyclic, so reference
    counting frees them. This changes a process-wide setting for the length
    of one load; the caller's setting is restored however the load ends.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream, strict=True)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv("missing header row") from None
    except csv.Error as exc:
        raise MalformedCsv(f"row 1: {exc}") from None
    if any(not name.strip() for name in header):
        raise MalformedCsv(f"blank column name in header {header}")
    ei = _resolve_role(header, eid_col, EID_ALIASES, "event id")
    ci = _resolve_role(header, cid_col, CID_ALIASES, "case id")
    ti = _resolve_role(header, ts_col, TS_ALIASES, "timestamp")
    if len({ei, ci, ti}) != 3:
        raise MalformedCsv("event id, case id and timestamp must be distinct columns")
    attr_cols = [i for i in range(len(header)) if i not in (ei, ci, ti)]
    schema = tuple(header[i] for i in attr_cols)
    # A row's attribute fields: a tuple, one string, or () without attributes.
    attr_fields = itemgetter(*attr_cols) if attr_cols else lambda row: ()
    shared: dict[object, tuple[tuple[str, str | None], ...]] = {}

    width = len(header)  # at least 3, so an empty record is never a full row
    events: list[Event] = []
    append = events.append
    new = tuple.__new__  # Event's own __new__ is a Python function; the tuple is the same
    lineno = 1
    # The proof that sorting would change nothing and EventLog's check would
    # pass, made row by row: starts holds each case run's first index, eids
    # the run's event ids so far. At the first descent or repeated key it is
    # dropped (None), and EventLog sorts the events and finds the fault.
    starts: list[int] | None = []
    eids: set[str] = set()
    prev_cid = prev_ts = None
    # Nothing built from here to the EventLog can form a reference cycle, so
    # the paused collector has nothing to find in the events as they pile up.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row:
                    continue
                raise MalformedCsv(f"row {lineno} has {len(row)} fields, header has {width}")
            text = row[ti]
            try:
                try:
                    ts = int(text) if text.isdecimal() else parse_timestamp(text)
                except ValueError:  # past int()'s digit limit: parse_timestamp says so
                    ts = parse_timestamp(text)
            except BadTimestamp as exc:
                raise BadTimestamp(f"row {lineno}: {exc}") from None
            fields = attr_fields(row)
            attrs = shared.get(fields)
            if attrs is None:
                attrs = shared[fields] = tuple((header[i], row[i] or None) for i in attr_cols)
            eid, cid = row[ei], row[ci]
            if starts is not None:
                if cid != prev_cid:
                    if starts and cid < prev_cid:
                        starts = None
                    else:
                        starts.append(len(events))
                        eids = {eid}
                        prev_cid = cid
                elif ts > prev_ts and eid not in eids:
                    eids.add(eid)
                else:
                    starts = None
                prev_ts = ts
            append(new(Event, (eid, cid, ts, attrs)))
    except csv.Error as exc:  # raised while reading the row after `lineno`
        raise MalformedCsv(f"row {lineno + 1}: {exc}") from None
    else:
        del shared  # free before the check: one entry per event when values are all distinct
        if starts is None:
            return EventLog(schema=schema, events=tuple(events))
        # Proven: attrs tuples are named from the header, as the schema is,
        # and no parsed timestamp is negative.
        return EventLog._proven(schema, tuple(events), starts)
    finally:
        if collecting:
            gc.enable()


def serialize_event_log(log: EventLog) -> str:
    """Serialize back to CSV with canonical eid/cid/ts headers and millisecond
    timestamps. load_event_log of the result reproduces the log exactly."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["eid", "cid", "ts", *log.schema])
    for ev in log.events:
        writer.writerow([ev.eid, ev.cid, str(ev.ts), *["" if v is None else v for v in ev.att()]])
    return out.getvalue()


def cases(log: EventLog) -> frozenset[str]:
    """The distinct case ids of the log."""
    return frozenset(log.events[i].cid for i in log._starts)


def event_sets(log: EventLog) -> list[EventSet]:
    """All per-case event sets, ordered by case id: a slice of the log's
    events per case run, where the log's builder recorded the runs: EventLog's
    check, load_event_log's row loop, or merge_cases."""
    events, starts, new = log.events, log._starts, tuple.__new__
    return [new(EventSet, (events[a][1], events[a:b])) for a, b in zip(starts, [*starts[1:], len(events)])]


def merge_cases(log: EventLog) -> EventLog:
    """Collapse all cases into a single case "merged".

    Events are renumbered with timestamps 1..n in ascending original
    (ts, cid, eid) order; attribute tuples are untouched. Event ids are kept
    unless merging would collide two of them, in which case a deterministic
    suffix is appended. The one case is thus in order with distinct keys,
    and its attrs tuples are the checked log's, so the merged log is built
    without EventLog's sort and check.
    """
    ordered = sorted(log.events, key=lambda e: (e.ts, e.cid, e.eid))
    used: set[str] = set()
    merged = []
    for row, ev in enumerate(ordered, start=1):
        eid = ev.eid
        while eid in used:
            eid = f"{eid}_{row}"
        used.add(eid)
        merged.append(Event(eid=eid, cid="merged", ts=row, attrs=ev.attrs))
    return EventLog._proven(log.schema, tuple(merged), [0] if merged else [])
