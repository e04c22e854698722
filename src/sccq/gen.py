"""Seeded random generators for logs, patterns and queries.

Everything takes an explicit ``random.Random`` so corpora are reproducible.
``random_pair`` keeps its (query, log) pairs null-free and small, so the
corpora built on it stay fixed and the datalog evaluation stays cheap;
null-bearing corpora pass ``allow_null=True`` to ``random_event_log``.
"""

from __future__ import annotations

import random

from .ast import (
    AnyEvent,
    AttrEqAttr,
    AttrEqConst,
    BehaviourDef,
    BehaviourMatch,
    BehaviourRef,
    DirectlyFollows,
    End,
    Follows,
    Identifier,
    IdentifierExpr,
    Literal,
    NotExpr,
    OrExpr,
    PatternFormula,
    Query,
    SimpleMatch,
    Star,
    Start,
)
from .eventlog import Event, EventLog

ACTIVITIES = (
    "register request",
    "review request",
    "send quote",
    "approve order",
    "reject order",
    "ship goods",
    "send invoice",
    "close case",
)
RESOURCES = ("alice", "bob", "carol", "dave")
DEFAULT_VALUES = ("a", "b", "c", "d")
# The most WHERE conditions in a query from random_query_ast / random_query.
_AST_MAX_CONDITIONS = 3
_QUERY_MAX_CONDITIONS = 2


def random_event_log(
    rng: random.Random,
    *,
    cases: int = 3,
    max_events: int = 6,
    schema: tuple[str, ...] = ("event_name", "resource"),
    values: tuple[str, ...] = DEFAULT_VALUES,
    allow_null: bool = False,
) -> EventLog:
    """Log with 1..max_events events per case at distinct timestamps."""
    events = []
    shared: dict[tuple, tuple] = {}  # one attrs tuple per combination of values, as load_event_log
    eid = 1
    for c in range(cases):
        cid = f"{c + 1:04d}"
        count = rng.randint(1, max_events)
        for ts in sorted(rng.sample(range(10, 10 * (cases * max_events + 10)), count)):
            attrs = tuple(
                (name, None if allow_null and rng.random() < 0.15 else rng.choice(values))
                for name in schema
            )
            events.append(Event(str(eid), cid, ts, shared.setdefault(attrs, attrs)))
            eid += 1
    return EventLog(schema, tuple(events))


def display_log(rng: random.Random, *, cases: int = 3, max_events: int = 5, extra_attrs: int = 0) -> EventLog:
    """Readable log for the gen subcommand: activity names and resources."""
    schema = ("event_name", "resource") + tuple(f"attr{i + 1}" for i in range(extra_attrs))
    events = []
    shared: dict[tuple, tuple] = {}  # one attrs tuple per combination of values, as load_event_log
    eid = 1
    for c in range(cases):
        cid = f"{c + 1:04d}"
        count = rng.randint(2, max(2, max_events))
        base = rng.randrange(1_600_000_000, 1_700_000_000)
        ts = base
        for _ in range(count):
            ts += rng.randint(60, 86_400)
            attrs = [("event_name", rng.choice(ACTIVITIES)), ("resource", rng.choice(RESOURCES))]
            attrs += [(f"attr{i + 1}", str(rng.randint(0, 9))) for i in range(extra_attrs)]
            key = tuple(attrs)
            events.append(Event(str(eid), cid, ts, shared.setdefault(key, key)))
            eid += 1
    return EventLog(schema, tuple(events))


def _random_idexpr(
    rng: random.Random,
    depth: int,
    leaves: tuple[IdentifierExpr, ...],
) -> IdentifierExpr:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(leaves)
    if rng.random() < 0.6:
        return OrExpr(_random_idexpr(rng, depth - 1, leaves), _random_idexpr(rng, depth - 1, leaves))
    return NotExpr(_random_idexpr(rng, depth - 1, leaves))


def random_pattern(
    rng: random.Random,
    *,
    depth: int = 2,
    values: tuple[str, ...] = DEFAULT_VALUES,
    behaviour_names: tuple[str, ...] | None = None,
    identifier_depth: int = 1,
) -> PatternFormula:
    """Pattern of bounded depth. Literal leaves by default; BehaviourRef
    leaves when behaviour_names is given. Identifier expressions nest OR and
    NOT up to identifier_depth."""
    if behaviour_names is None:
        leaves: tuple[IdentifierExpr, ...] = tuple(Literal(v) for v in values)
    else:
        leaves = tuple(BehaviourRef(n) for n in behaviour_names)

    def atom() -> PatternFormula:
        if rng.random() < 0.15:
            return AnyEvent()
        return Identifier(_random_idexpr(rng, identifier_depth, leaves))

    def build(d: int) -> PatternFormula:
        if d <= 0:
            return atom()
        roll = rng.random()
        if roll < 0.30:
            return atom()
        if roll < 0.50:
            return Follows(build(d - 1), build(d - 1))
        if roll < 0.70:
            return DirectlyFollows(build(d - 1), build(d - 1))
        if roll < 0.85:
            return Star(build(d - 1))
        if roll < 0.93:
            return Start(build(d - 1))
        return End(build(d - 1))

    return build(depth)


def random_query_ast(
    rng: random.Random,
    *,
    schema: tuple[str, ...] = ("event_name", "resource"),
    values: tuple[str, ...] = DEFAULT_VALUES + ("it's", 'say "hi"'),
) -> Query:
    """Arbitrary well-formed query AST for parser round-trip testing; not
    necessarily satisfiable."""
    columns = ("eid", "cid", "ts") + schema
    projection = tuple(rng.sample(columns, rng.randint(1, min(3, len(columns)))))
    conditions = []
    for _ in range(rng.randint(0, _AST_MAX_CONDITIONS)):
        roll = rng.random()
        if roll < 0.35:
            attr = rng.choice(columns)
            value = rng.randint(0, 500) if attr == "ts" and rng.random() < 0.5 else rng.choice(values)
            conditions.append(AttrEqConst(attr, value))
        elif roll < 0.55:
            conditions.append(AttrEqAttr(rng.choice(columns), rng.choice(columns)))
        elif roll < 0.8:
            conditions.append(SimpleMatch(rng.choice(schema), random_pattern(rng, values=values)))
        else:
            names = ("x", "y")[: rng.randint(1, 2)]
            defs = []
            for name in names:
                conjuncts = tuple(
                    AttrEqConst(rng.choice(schema), rng.choice(values))
                    if rng.random() < 0.7
                    else AttrEqAttr(rng.choice(schema), rng.choice(schema))
                    for _ in range(rng.randint(1, 2))
                )
                defs.append(BehaviourDef(name, conjuncts))
            pattern = random_pattern(rng, behaviour_names=names)
            conditions.append(BehaviourMatch(tuple(defs), pattern))
    return Query(projection, "eventlog", tuple(conditions))


def random_query(rng: random.Random, log: EventLog) -> Query:
    """Query that resolves against the log's schema, biased toward observed
    values so conditions actually select something. At most one MATCHES."""
    observed: dict[str, tuple[str, ...]] = {}
    for name in log.schema:
        seen = sorted({v for ev in log.events for a, v in ev.attrs if a == name and v is not None})
        observed[name] = tuple(seen) or ("zz",)
    columns = ("eid", "cid", "ts") + log.schema
    projection = tuple(rng.sample(columns, rng.randint(1, min(3, len(columns)))))

    def pick_value(attr: str) -> str:
        pool = observed.get(attr, ("zz",))
        return rng.choice(pool) if rng.random() < 0.75 else "zz"

    conditions = []
    used_match = False
    for _ in range(rng.randint(0, _QUERY_MAX_CONDITIONS)):
        roll = rng.random()
        if roll < 0.4 or (used_match and roll < 0.7):
            attr = rng.choice(columns)
            if attr == "ts":
                value: str | int = rng.choice([ev.ts for ev in log.events]) if log.events else 0
            else:
                value = pick_value(attr)
            conditions.append(AttrEqConst(attr, value))
        elif roll < 0.7:
            conditions.append(AttrEqAttr(rng.choice(columns), rng.choice(columns)))
        elif not used_match:
            used_match = True
            attr = rng.choice(log.schema)
            if rng.random() < 0.7:
                conditions.append(
                    SimpleMatch(attr, random_pattern(rng, values=observed[attr] + ("zz",)))
                )
            else:
                name = "b"
                conjuncts = (AttrEqConst(attr, pick_value(attr)),)
                pattern = random_pattern(rng, behaviour_names=(name,))
                conditions.append(BehaviourMatch((BehaviourDef(name, conjuncts),), pattern))
    return Query(projection, "eventlog", tuple(conditions))


def random_pair(rng: random.Random) -> tuple[Query, EventLog]:
    """(query, log) pair for the back-end differential check."""
    log = random_event_log(
        rng,
        cases=rng.randint(1, 3),
        max_events=6,
        values=DEFAULT_VALUES[: rng.randint(2, 4)],
    )
    return random_query(rng, log), log
