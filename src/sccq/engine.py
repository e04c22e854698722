"""Select-project evaluation of queries with pattern selections.

A query compiles to a plan of three layers, applied in this order:

1. a case survives when every pattern selection holds on its *original*
   event set (so a row filter can never hide events from a pattern);
2. row equality selections filter individual events;
3. the projection emits one row per surviving event, duplicates preserved
   unless set semantics is requested.

Equality is sort-aware: the fixed columns eid, cid and ts and the event
attributes live in separate value sorts, so an equality across sorts is
false even when the printed values coincide. This mirrors the namespaced
constants of the Datalog back end, keeping the two result-equivalent.

``execute`` turns each row selection and projection column, once per query,
into a reader by schema position; an equality across sorts is decided false
before any event is read, and cases are grouped only when the plan has a
pattern selection.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .ast import AttrEqAttr, AttrEqConst, BehaviourMatch, Query, SimpleMatch
from .errors import SccError, UnknownColumn, UnknownSource
from .eventlog import CID_ALIASES, EID_ALIASES, TS_ALIASES, Event, EventLog, event_sets
from .matcher import CompiledPattern, case_satisfies, compile_pattern
from .parser import behaviour_defs_text, const_text, pretty_print_pattern

DEFAULT_SOURCE = "eventlog"

# Query-side aliases for the fixed columns; attribute names take precedence.
_ROLE_ALIASES = {"eid": EID_ALIASES, "cid": CID_ALIASES, "ts": TS_ALIASES}


@dataclass(frozen=True)
class ColumnRef:
    """A resolved column: its role kind and the name the query used."""

    kind: str  # "eid" | "cid" | "ts" | "attr"
    name: str
    attribute: str | None = None


@dataclass(frozen=True)
class ColumnEquality:
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class ConstEquality:
    column: ColumnRef
    value: str | int


RowSelection = ColumnEquality | ConstEquality


@dataclass(frozen=True)
class Plan:
    """A query bound to the schema it was compiled for: its columns and
    pattern leaves read attributes by position in that schema."""

    source: str
    schema: tuple[str, ...]
    projection: tuple[ColumnRef, ...]
    row_selections: tuple[RowSelection, ...]
    pattern_selections: tuple[CompiledPattern, ...]


@dataclass(frozen=True)
class ResultTable:
    """Projection output. Rows follow the (cid, ts) order of their source
    events; values are ints for ts, strings or None otherwise."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str | int | None, ...], ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.columns)
        writer.writerows(self.rows)  # None is written as ""
        return out.getvalue()

    def to_jsonl(self) -> str:
        # Column at a time: each value is encoded once, and each line joins
        # the values with fixed key prefixes. A repeated name keeps its first
        # place and the values of its last column, as a dict of the row would.
        n = len(self.rows)
        if not n:
            return ""
        values = list(zip(*self.rows))
        last = {name: i for i, name in enumerate(self.columns)}
        parts: list[Iterable[str]] = []
        for place, (name, i) in enumerate(last.items()):
            parts.append(repeat(f"{', ' if place else '{'}{encode_basestring(name)}: ", n))
            parts.append([encode_basestring(v) if v.__class__ is str else "null" if v is None else str(v)
                          for v in values[i]])
        parts.append(repeat("}" if last else "{}", n))
        return "\n".join(map("".join, zip(*parts))) + "\n"

    def to_pretty(self) -> str:
        # Column at a time: each column is rendered, measured and padded whole.
        n = len(self.rows)
        widths: list[int] = []
        padded: list[Iterable[str]] = []
        for name, column in zip(self.columns, list(zip(*self.rows)) or repeat(())):
            texts = ["" if v is None else str(v) for v in column]
            widths.append(max(len(name), max(map(len, texts), default=0)))
            padded.append(map(str.ljust, texts, repeat(widths[-1])))
        head = "  ".join(map(str.ljust, self.columns, widths))
        sep = "  ".join("-" * w for w in widths)
        body = map("  ".join, zip(*padded)) if padded else repeat("", n)
        return "\n".join([head, sep, *body, f"({n} rows)"])


def resolve_column(name: str, schema: tuple[str, ...]) -> ColumnRef:
    """Exact attribute match first, then the case-insensitive role aliases."""
    if name in schema:
        return ColumnRef("attr", name, attribute=name)
    lowered = name.lower()
    for kind, aliases in _ROLE_ALIASES.items():
        if lowered in aliases:
            return ColumnRef(kind, name)
    valid = sorted({*schema, *(a for names in _ROLE_ALIASES.values() for a in names)})
    raise UnknownColumn(f"unknown column {name!r}; known columns: {', '.join(valid)}")


def compile_plan(query: Query, schema: tuple[str, ...]) -> Plan:
    if query.source != DEFAULT_SOURCE:
        raise UnknownSource(f"unknown source {query.source!r}; the loaded log is named {DEFAULT_SOURCE!r}")
    projection = tuple(resolve_column(name, schema) for name in query.projection)
    rows: list[RowSelection] = []
    patterns: list[CompiledPattern] = []
    for cond in query.conditions:
        if isinstance(cond, AttrEqAttr):
            rows.append(ColumnEquality(resolve_column(cond.left, schema), resolve_column(cond.right, schema)))
        elif isinstance(cond, AttrEqConst):
            rows.append(ConstEquality(resolve_column(cond.attr, schema), cond.value))
        elif isinstance(cond, (SimpleMatch, BehaviourMatch)):
            patterns.append(compile_pattern(cond, schema))
        else:
            raise TypeError(f"not a condition: {cond!r}")
    return Plan(query.source, tuple(schema), projection, tuple(rows), tuple(patterns))


def _reader(ref: ColumnRef, schema: tuple[str, ...]) -> Callable[[Event], str | int | None]:
    """The column's value of an event; None stands for null."""
    if ref.kind == "attr":
        i = schema.index(ref.attribute)  # type: ignore[arg-type]
        return lambda event: event.attrs[i][1]
    return itemgetter(Event._fields.index(ref.kind))  # eid, cid and ts are Event fields


def _row_test(selection: RowSelection, schema: tuple[str, ...]) -> Callable[[Event], bool] | None:
    """The selection as a test on one event, or None when no event can pass
    it because it compares values of different sorts. Each column kind is
    its own sort."""
    if isinstance(selection, ConstEquality):
        column, value = selection.column, selection.value
        if column.kind == "ts" and not isinstance(value, int):
            return None  # a quoted string never equals a timestamp
        const = value if column.kind == "ts" else str(value)
        read = _reader(column, schema)
        return lambda event: read(event) == const  # const is never None, so null fails
    left, right = selection.left, selection.right
    if left.kind != right.kind:
        return None
    read_left, read_right = _reader(left, schema), _reader(right, schema)
    if left.kind != "attr":  # eid, cid and ts are never null
        return lambda event: read_left(event) == read_right(event)
    return lambda event: (lhs := read_left(event)) is not None and lhs == read_right(event)


def execute(plan: Plan, log: EventLog, *, set_semantics: bool = False) -> ResultTable:
    """Run the plan. Pattern selections see the full per-case event sets,
    and a case is kept before row filtering only if it satisfies them all;
    a case that fails one pattern is not matched against the later ones.
    Raises SccError when the plan was compiled for another schema than the log's."""
    if log.schema != plan.schema:
        raise SccError(f"plan compiled for the schema {list(plan.schema)} run on {list(log.schema)}")
    columns = tuple(ref.name for ref in plan.projection)
    tests = [_row_test(sel, log.schema) for sel in plan.row_selections]
    if None in tests:
        return ResultTable(columns, ())
    events: Sequence[Event] = log.events  # already in (cid, ts) order
    if plan.pattern_selections:
        events = log.restrict({
            es.cid for es in event_sets(log)
            if all(case_satisfies(pattern, es) for pattern in plan.pattern_selections)
        }).events
    for test in tests:
        events = list(filter(test, events))
    rows = list(zip(*[map(_reader(ref, log.schema), events) for ref in plan.projection]))
    if set_semantics:
        rows = list(dict.fromkeys(rows))
    return ResultTable(columns, tuple(rows))


def _pattern_selection_text(pattern: CompiledPattern) -> str:
    body = pretty_print_pattern(pattern.formula)
    if pattern.attribute is not None:
        return f"{pattern.attribute}: {body}"
    return f"{behaviour_defs_text(pattern.behaviours)}: {body}"


def _row_selection_text(selection: RowSelection) -> str:
    if isinstance(selection, ConstEquality):
        return f"{selection.column.name} = {const_text(selection.value)}"
    return f"{selection.left.name} = {selection.right.name}"


def explain(plan: Plan) -> str:
    """Render the plan as a select-project expression, innermost applied first."""
    expr = plan.source
    for pattern in plan.pattern_selections:
        expr = f"σ_P[{_pattern_selection_text(pattern)}]({expr})"
    for selection in plan.row_selections:
        expr = f"σ[{_row_selection_text(selection)}]({expr})"
    return f"π[{','.join(ref.name for ref in plan.projection)}]({expr})"
