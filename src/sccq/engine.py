"""Select-project evaluation of queries with pattern selections.

A query compiles to a plan of three layers, applied in this order:

1. every pattern selection runs against the *original* per-case event sets
   and the surviving case sets are intersected (so a row filter can never
   hide events from a pattern);
2. row equality selections filter individual events;
3. the projection emits one row per surviving event, duplicates preserved
   unless set semantics is requested.

Equality is sort-aware: the fixed columns eid, cid and ts and the event
attributes live in separate value sorts, so an equality across sorts is
false even when the printed values coincide. This mirrors the namespaced
constants of the Datalog back end, keeping the two result-equivalent.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .ast import AttrEqAttr, AttrEqConst, BehaviourMatch, Query, SimpleMatch
from .errors import UnknownColumn, UnknownSource
from .eventlog import Event, EventLog, event_sets
from .matcher import CompiledPattern, case_satisfies, compile_pattern
from .parser import pretty_print_pattern, quote_string

DEFAULT_SOURCE = "eventlog"

# Query-side aliases for the fixed columns; attribute names take precedence.
_ROLE_ALIASES = {
    "eid": ("eid", "event_id"),
    "cid": ("cid", "case_id"),
    "ts": ("ts", "timestamp", "event_time"),
}


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
    source: str
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
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        return out.getvalue()

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(dict(zip(self.columns, row)), ensure_ascii=False) for row in self.rows
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_pretty(self) -> str:
        cells = [[("" if v is None else str(v)) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, text in enumerate(row):
                widths[i] = max(widths[i], len(text))
        head = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        sep = "  ".join("-" * w for w in widths)
        body = ["  ".join(t.ljust(widths[i]) for i, t in enumerate(row)) for row in cells]
        return "\n".join([head, sep, *body, f"({len(self.rows)} rows)"])


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


def compile_plan(query: Query, schema: tuple[str, ...], source: str = DEFAULT_SOURCE) -> Plan:
    if query.source != source:
        raise UnknownSource(f"unknown source {query.source!r}; the loaded log is named {source!r}")
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
    return Plan(query.source, projection, tuple(rows), tuple(patterns))


def _comparison_value(event: Event, ref: ColumnRef) -> tuple[str, str | int] | None:
    """Sort-tagged value for equality tests; None stands for null."""
    if ref.kind == "eid":
        return ("e", event.eid)
    if ref.kind == "cid":
        return ("c", event.cid)
    if ref.kind == "ts":
        return ("t", event.ts)
    value = event.value(ref.attribute)  # type: ignore[arg-type]
    return None if value is None else ("v", value)


def _comparison_const(ref: ColumnRef, value: str | int) -> tuple[str, str | int]:
    if ref.kind == "eid":
        return ("e", str(value))
    if ref.kind == "cid":
        return ("c", str(value))
    if ref.kind == "ts":
        # A quoted string never equals a timestamp; integers compare numerically.
        return ("t", value) if isinstance(value, int) else ("v", value)
    return ("v", str(value))


def _output_value(event: Event, ref: ColumnRef) -> str | int | None:
    if ref.kind == "eid":
        return event.eid
    if ref.kind == "cid":
        return event.cid
    if ref.kind == "ts":
        return event.ts
    return event.value(ref.attribute)  # type: ignore[arg-type]


def _row_selected(event: Event, selection: RowSelection) -> bool:
    if isinstance(selection, ConstEquality):
        actual = _comparison_value(event, selection.column)
        return actual is not None and actual == _comparison_const(selection.column, selection.value)
    left = _comparison_value(event, selection.left)
    right = _comparison_value(event, selection.right)
    return left is not None and right is not None and left == right


def execute(plan: Plan, log: EventLog, *, set_semantics: bool = False) -> ResultTable:
    """Run the plan. Pattern selections see the full per-case event sets;
    their surviving case sets are intersected before row filtering."""
    sets = event_sets(log)
    surviving = {es.cid for es in sets}
    for pattern in plan.pattern_selections:
        surviving &= {es.cid for es in sets if case_satisfies(pattern, es)}
    rows = []
    for event in log.events:  # already in (cid, ts) order
        if event.cid not in surviving:
            continue
        if all(_row_selected(event, sel) for sel in plan.row_selections):
            rows.append(tuple(_output_value(event, ref) for ref in plan.projection))
    if set_semantics:
        seen = set()
        unique = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        rows = unique
    return ResultTable(tuple(ref.name for ref in plan.projection), tuple(rows))


def _pattern_selection_text(pattern: CompiledPattern) -> str:
    body = pretty_print_pattern(pattern.formula)
    if pattern.is_simple:
        return f"{pattern.attribute}: {body}"
    def conjunct_text(c: AttrEqAttr | AttrEqConst) -> str:
        if isinstance(c, AttrEqConst):
            rendered = str(c.value) if isinstance(c.value, int) else quote_string(c.value)
            return f"{c.attr} = {rendered}"
        return f"{c.left} = {c.right}"

    defs = ", ".join(
        " AND ".join(conjunct_text(c) for c in d.conjuncts) + f" AS {d.name}"
        for d in pattern.behaviours
    )
    return f"{defs}: {body}"


def _row_selection_text(selection: RowSelection) -> str:
    if isinstance(selection, ConstEquality):
        value = selection.value
        rendered = str(value) if isinstance(value, int) else quote_string(value)
        return f"{selection.column.name} = {rendered}"
    return f"{selection.left.name} = {selection.right.name}"


def explain(plan: Plan) -> str:
    """Render the plan as a select-project expression, innermost applied first."""
    expr = plan.source
    for pattern in plan.pattern_selections:
        expr = f"σ_P[{_pattern_selection_text(pattern)}]({expr})"
    for selection in plan.row_selections:
        expr = f"σ[{_row_selection_text(selection)}]({expr})"
    return f"π[{','.join(ref.name for ref in plan.projection)}]({expr})"
