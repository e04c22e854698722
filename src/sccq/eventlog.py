"""Event-log data model and CSV ingestion.

An event log is a single flat relation of events. Every event carries an
event id, a case id, a timestamp and one value (possibly null) per schema
attribute. Two key candidates hold: (eid, cid) and (cid, ts). Within one
case timestamps are therefore unique, which totally orders the case.

Timestamps are integer epoch milliseconds everywhere inside the package;
ISO-8601 text is converted once at ingestion.

EventLog is the one type that enforces the keys and the order: it sorts its
events by (cid, ts) and checks them in one pass. Event, EventSet and Segment
are immutable values derived from it and are not checked again, and neither
is a log that ``EventLog.restrict`` cuts to whole cases of a checked one.

Events loaded from CSV share their ``attrs`` tuples: all events whose
attribute fields are equal hold one and the same tuple, so a log of many
events over few distinct attribute combinations builds, and name-checks,
each combination once.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Container
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import groupby
from operator import attrgetter, itemgetter
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
    raw = text
    if not text.isdecimal():  # padded, signed or ISO-8601; plain digits go straight to int()
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


@dataclass(frozen=True)
class EventLog:
    """Immutable event log. Events are kept in canonical (cid, ts) order and
    the key candidates are enforced at construction time."""

    schema: tuple[str, ...]
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        schema = tuple(self.schema)
        if len(set(schema)) != len(schema):
            raise MalformedCsv(f"duplicate attribute names in schema {schema}")
        ordered = tuple(sorted(self.events, key=_CID_TS))
        seen_eid_cid: set[tuple[str, str]] = set()
        # The names of an attrs tuple are checked the first time it occurs;
        # loaded events share one tuple per distinct combination of values.
        named: set[tuple[tuple[str, str | None], ...]] = set()
        prev_cid = prev_ts = None
        for eid, cid, ts, attrs in ordered:
            if ts < 0:
                raise BadTimestamp(f"event {eid!r}: negative timestamp {ts}")
            if attrs not in named:
                if tuple(name for name, _ in attrs) != schema:
                    raise KeyViolation(
                        f"event {eid!r} attribute names do not match schema {schema}"
                    )
                named.add(attrs)
            key = (eid, cid)
            if key in seen_eid_cid:
                raise KeyViolation(f"duplicate (eid, cid) pair ({eid!r}, {cid!r})")
            seen_eid_cid.add(key)
            # Sorting put equal (cid, ts) pairs side by side.
            if ts == prev_ts and cid == prev_cid:
                raise KeyViolation(f"duplicate (cid, ts) pair ({cid!r}, {ts})")
            prev_cid, prev_ts = cid, ts
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "events", ordered)

    def restrict(self, cids: Container[str]) -> EventLog:
        """The log of the events whose case is in cids. A case-closed subset
        of a valid log is valid and in order, so it is neither sorted nor
        checked again. It sets the two fields by hand, so a field added to
        EventLog must be added here too (test_eventlog checks the list)."""
        subset = object.__new__(EventLog)
        object.__setattr__(subset, "schema", self.schema)
        object.__setattr__(subset, "events", tuple([e for e in self.events if e.cid in cids]))
        return subset


@dataclass(frozen=True)
class EventSet:
    """All events of one case, ascending by timestamp: a run of an
    EventLog's ordered events."""

    cid: str
    events: tuple[Event, ...]

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def timestamps(self) -> tuple[int, ...]:
        return tuple(e.ts for e in self.events)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {ts: i for i, ts in enumerate(self.timestamps)}

    def event_at(self, ts: int) -> Event:
        return self.events[self._index[ts]]

    def successor(self, ts: int) -> int | None:
        """The next event timestamp strictly after ``ts``, or None."""
        i = self._index[ts] + 1
        return self.timestamps[i] if i < len(self.timestamps) else None


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

    def sort_key(self) -> tuple[int, int]:
        """(span, start) presentation order; the empty segment sorts first."""
        if self.is_empty:
            return (-1, -1)
        return (self.end - self.start, self.start)  # type: ignore[operator]

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
    order. Empty attribute fields ingest as null.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream)
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

    events = []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedCsv(f"row {lineno} has {len(row)} fields, header has {len(header)}")
            try:
                ts = parse_timestamp(row[ti])
            except BadTimestamp as exc:
                raise BadTimestamp(f"row {lineno}: {exc}") from None
            fields = attr_fields(row)
            attrs = shared.get(fields)
            if attrs is None:
                attrs = shared[fields] = tuple((header[i], row[i] or None) for i in attr_cols)
            events.append(Event(row[ei], row[ci], ts, attrs))
    except csv.Error as exc:  # raised while reading the row after `lineno`
        raise MalformedCsv(f"row {lineno + 1}: {exc}") from None
    del shared  # free before sorting: one entry per event when values are all distinct
    return EventLog(schema=schema, events=tuple(events))


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
    return frozenset(e.cid for e in log.events)


def event_sets(log: EventLog) -> list[EventSet]:
    """All per-case event sets, ordered by case id."""
    return [EventSet(cid, tuple(run)) for cid, run in groupby(log.events, key=attrgetter("cid"))]


def enumerate_segments(es: EventSet) -> list[Segment]:
    """Every nonempty segment of the case: all timestamp pairs t_b <= t_e,
    ascending by (start, end). Exactly n(n+1)/2 segments for n events."""
    ts = es.timestamps
    return [Segment.interval(ts[i], ts[j]) for i in range(len(ts)) for j in range(i, len(ts))]


def merge_cases(log: EventLog) -> EventLog:
    """Collapse all cases into a single case "merged".

    Events are renumbered with timestamps 1..n in ascending original
    (ts, cid, eid) order; attribute tuples are untouched. Event ids are kept
    unless merging would collide two of them, in which case a deterministic
    suffix is appended.
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
    return EventLog(schema=log.schema, events=tuple(merged))
