"""Pattern matching over per-case event sets.

A pattern denotes a set of segments of a case's timeline:

* an identifier (or ANY) denotes the single-event segments whose event
  matches it;
* ``A ~> B`` spans from the start of an A-segment to the end of a B-segment
  that starts after the A-segment ends; ``A -> B`` additionally requires
  that no event lies strictly between the end of A and the start of B. Both
  operands must be witnessed by nonempty segments;
* ``A*`` denotes the empty segment plus every contiguous concatenation of
  one or more A-segments;
* ``START (A)`` / ``(A) END`` keep only the A-segments that begin at the
  case's first event / end at its last event.

Two evaluators derive the set:

* a Thompson NFA, built once per pattern by ``compile_pattern``, serves both
  selection and listing. ``compile_pattern`` checks each identifier once
  and binds it to a test on one event that reads attributes by schema
  position; the NFA's states run those tests. ``case_satisfies`` decides
  whether some segment satisfies the pattern in one pass over the case's
  events that stops at the first accept, through a DFA built from the NFA
  on demand and bounded in size; ``satisfying_segments`` lists the
  segments (for ``sccq match``) in one pass whose runs carry their start
  positions, as timestamp pairs sorted once into presentation order;
* the brute-force oracle re-derives the set top-down by testing every
  candidate segment against the definition clauses, and checks the NFA on
  small cases. It re-derives even the identifier test, reading attributes
  by name, and shares only the AST and the segment types with the NFA.

The Datalog translation (``datalog.py``) is the second, independent
reference: its root relation is the listing's nonempty part on cases of
any length.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable

from .ast import (
    AnyEvent,
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
    SimpleMatch,
    Star,
    Start,
    matches_empty,
)
from .errors import OracleBoundExceeded, SccError, UnboundBehaviourName, UnknownAttribute
from .eventlog import (
    EMPTY_SEGMENT,
    Event,
    EventLog,
    EventSet,
    Segment,
    enumerate_segments,
    event_sets,
)

DEFAULT_ORACLE_BOUND = 12
LeafTest = Callable[[Event], bool]  # a compiled identifier: does one event match it?
EventClass = Callable[[tuple], Hashable]  # of an event's attrs: equal classes pass the same leaf tests


@dataclass(frozen=True)
class CompiledPattern:
    """A pattern bound to the schema it was compiled for and to its
    evaluation mode: a single attribute for plain matches, or a list of named
    behaviour predicates. Its automaton's leaves read attributes by schema
    position, so it answers only on event sets of that schema."""

    formula: PatternFormula
    schema: tuple[str, ...]
    nfa: _Nfa = field(compare=False, repr=False)
    attribute: str | None = None
    behaviours: tuple[BehaviourDef, ...] = ()

    def behaviour(self, name: str) -> BehaviourDef:
        for d in self.behaviours:
            if d.name == name:
                return d
        raise UnboundBehaviourName(f"behaviour name {name!r} is not defined")

    def check_schema(self, schema: tuple[str, ...]) -> None:
        if schema != self.schema:
            raise SccError(f"pattern compiled for the schema {list(self.schema)} run on {list(schema)}")


def _behaviour_test(defn: BehaviourDef, position: Callable[[str, str], int]) -> LeafTest:
    # Per conjunct (i, j, const): attribute i equals attribute j, or const if j is None.
    checks = [
        (position(c.attr, defn.name), None, str(c.value)) if isinstance(c, AttrEqConst)
        else (position(c.left, defn.name), position(c.right, defn.name), None)
        for c in defn.conjuncts
    ]

    def holds(event: Event) -> bool:
        attrs = event.attrs
        for i, j, const in checks:
            value = attrs[i][1]
            if value is None or value != (const if j is None else attrs[j][1]):
                return False
        return True

    return holds


def compile_pattern(condition: SimpleMatch | BehaviourMatch, schema: tuple[str, ...]) -> CompiledPattern:
    """Bind a MATCHES condition against the log schema, once: every
    identifier compiles, through OR and NOT, to a test on one event that
    reads attributes by schema position, and the automaton runs those tests.

    Raises UnknownAttribute for attribute names outside the schema and
    UnboundBehaviourName for identifiers with no matching behaviour and for
    behaviour names defined more than once.
    """

    def position(attr: str, behaviour: str | None = None) -> int:
        if attr not in schema:
            owner = "" if behaviour is None else f" (behaviour {behaviour!r})"
            raise UnknownAttribute(f"attribute {attr!r}{owner} is not in the schema {list(schema)}")
        return schema.index(attr)

    # An event's class is what every leaf test on it depends on; the lazy DFA
    # keys its transitions on it (see _Nfa.accepts_some_segment).
    literals: dict[str, str] = {}  # each literal, to itself, as _leaf_test compiles it
    if isinstance(condition, SimpleMatch):
        attribute, behaviours = condition.attribute, ()
        column: int | None = position(attribute)
        named: dict[str, LeafTest] = {}
        # The column's value when a literal names it, else None: the
        # pattern, not the log, fixes the number of classes.
        event_class: EventClass = lambda attrs: literals.get(attrs[column][1])
    else:
        attribute, behaviours, column = None, condition.behaviours, None
        names = [d.name for d in behaviours]
        if len(set(names)) != len(names):
            raise UnboundBehaviourName(f"duplicate behaviour names in {names}")
        named = {d.name: _behaviour_test(d, position) for d in behaviours}
        # The event's values in the columns the behaviours read, as they
        # are, since a behaviour may compare two columns.
        columns = {
            schema.index(attr)
            for d in behaviours
            for c in d.conjuncts
            for attr in ((c.attr,) if isinstance(c, AttrEqConst) else (c.left, c.right))
        }
        event_class = itemgetter(*columns) if columns else lambda attrs: None

    nfa = _Nfa(condition.pattern, lambda expr: _leaf_test(expr, column, named, literals), event_class)
    return CompiledPattern(condition.pattern, schema, nfa, attribute, behaviours)


def _leaf_test(
    expr: IdentifierExpr, column: int | None, named: dict[str, LeafTest], literals: dict[str, str]
) -> LeafTest:
    """The identifier as a test on one event. Literals read position column
    and are recorded in literals; in a BEHAVIOUR match column is None and
    named holds each behaviour's test."""
    if isinstance(expr, Literal):
        if column is None:
            raise UnboundBehaviourName(
                f"literal {expr.value!r} in a BEHAVIOUR pattern; identifiers must be behaviour names"
            )
        value = literals[expr.value] = expr.value  # never None, so a null fails it
        return lambda event: event.attrs[column][1] == value
    if isinstance(expr, BehaviourRef):
        if column is not None:
            raise UnboundBehaviourName(f"behaviour name {expr.name!r} used outside a BEHAVIOUR match")
        if expr.name not in named:
            raise UnboundBehaviourName(f"behaviour name {expr.name!r} is not defined")
        return named[expr.name]
    if isinstance(expr, OrExpr):
        left, right = _leaf_test(expr.left, column, named, literals), _leaf_test(expr.right, column, named, literals)
        return lambda event: left(event) or right(event)
    if isinstance(expr, NotExpr):
        inner = _leaf_test(expr.inner, column, named, literals)
        return lambda event: not inner(event)
    raise TypeError(f"not an identifier expression: {expr!r}")


def _attr_value(event: Event, name: str) -> str | None:
    try:
        return event.value(name)
    except KeyError:
        raise UnknownAttribute(f"attribute {name!r} is not carried by event {event.eid!r}") from None


@dataclass(frozen=True)
class MatchResult:
    """The satisfying segments of one pattern over one event set: the
    nonempty ones as (start, end) timestamp pairs in presentation order,
    by (span, start), and whether the empty segment is one of them."""

    pairs: tuple[tuple[int, int], ...]
    empty: bool = False

    @property
    def satisfied(self) -> bool:
        return self.empty or bool(self.pairs)

    def text(self) -> str:
        """The ``sccq match`` listing: ``empty`` first when it satisfies,
        then ``(start,end)`` per pair; ``none`` when nothing does."""
        items = ["empty"] if self.empty else []
        items += [f"({start},{end})" for start, end in self.pairs]
        return ", ".join(items) or "none"

    def ordered(self) -> list[Segment]:
        """Segments by (span, start); the empty segment sorts first."""
        nonempty = [Segment.interval(start, end) for start, end in self.pairs]
        return [EMPTY_SEGMENT, *nonempty] if self.empty else nonempty

    @cached_property
    def segments(self) -> frozenset[Segment]:
        """The same segments as a set, built on first use; the listing
        itself never needs it."""
        return frozenset(self.ordered())


# --- the automaton: selection and listing -----------------------------------

_CONSUME, _SPLIT, _AT_START, _AT_END, _ACCEPT = range(5)
# The most DFA transitions one automaton caches; past it, selection takes
# plain NFA steps and caches nothing more. Building a transition costs about
# two NFA steps, which pays only if the transition is used again: in a
# BEHAVIOUR match an event's class is its values in the columns read, so a
# log of many such values misses often, and the bound caps that waste. The
# patterns of the benchmark's workloads cache at most 64 transitions.
_DFA_CACHE_LIMIT = 1_000
_ACCEPTING = -1  # the DFA state of every set that holds the accept state


class _Nfa:
    """Thompson automaton for the nonempty segments satisfying the formula.

    Every operand witness is nonempty, so the automaton is compiled over the
    nonempty semantics: an identifier or ANY is one state that consumes an
    event it matches, ``A -> B`` is concatenation, ``A ~> B`` is A, then a
    gap of ANY*, then B, a star is A+ and START / END are zero-width
    assertions at position 0 / position n. Every fragment consumes at least
    one event, so no cycle of epsilon moves exists. The empty segment is
    left to the caller: a root star holds through it.
    """

    def __init__(
        self, formula: PatternFormula, leaf: Callable[[IdentifierExpr], LeafTest], event_class: EventClass
    ):
        self.kind: list[int] = []
        self.leaf: list[LeafTest | None] = []  # None: ANY
        self.out: list[list[int]] = []
        self.accept = self._add(_ACCEPT, None)
        entry = self._build(formula, self.accept, leaf)
        # Epsilon closures, resolved once per position class: the first
        # position passes START assertions, the last passes END assertions.
        # Without such assertions, the first or last position is like any other.
        consuming = [s for s, kind in enumerate(self.kind) if kind == _CONSUME]
        self.entry_later = self._closure(entry, at_start=False, at_end=False)
        self.entry_first = self._closure(entry, True, False) if _AT_START in self.kind else self.entry_later
        self.follow_inner = {s: self._closure(self.out[s][0], False, False) for s in consuming}
        self.follow_last = self.follow_inner
        if _AT_END in self.kind:
            self.follow_last = {s: self._closure(self.out[s][0], False, True) for s in consuming}
        # The lazy DFA of accepts_some_segment. A DFA state is a set of
        # active states, interned to its index in dfa_sets (0: the empty set).
        # A position's class has bit 1 at the first position of a pattern
        # with START and bit 2 at the last of one with END, so without them
        # every position is of class 0. dfa_edges[class][state] maps an
        # event's class, event_class(event.attrs), to the next state or to
        # _ACCEPTING.
        self.event_class = event_class
        self.start_bit = 1 if _AT_START in self.kind else 0
        self.end_bit = 2 if _AT_END in self.kind else 0
        self.dfa_sets: list[frozenset[int]] = [frozenset()]
        self.dfa_ids: dict[frozenset[int], int] = {frozenset(): 0}
        self.dfa_edges: list[list[dict[Hashable, int]]] = [[{}] for _ in range(4)]
        self.dfa_cached = 0

    def _add(self, kind: int, leaf: LeafTest | None, *out: int) -> int:
        self.kind.append(kind)
        self.leaf.append(leaf)
        self.out.append(list(out))
        return len(self.kind) - 1

    def _build(self, node: PatternFormula, nxt: int, leaf: Callable[[IdentifierExpr], LeafTest]) -> int:
        """Add the states of node, continuing to nxt; return its entry. Each
        identifier's state tests the event with leaf(identifier)."""
        if isinstance(node, Identifier):
            return self._add(_CONSUME, leaf(node.expr), nxt)
        if isinstance(node, AnyEvent):
            return self._add(_CONSUME, None, nxt)
        if isinstance(node, DirectlyFollows):
            return self._build(node.left, self._build(node.right, nxt, leaf), leaf)
        if isinstance(node, Follows):
            gap = self._add(_SPLIT, None, self._build(node.right, nxt, leaf))
            self.out[gap].append(self._add(_CONSUME, None, gap))
            return self._build(node.left, gap, leaf)
        if isinstance(node, Star):
            loop = self._add(_SPLIT, None, nxt)
            entry = self._build(node.inner, loop, leaf)
            self.out[loop].append(entry)
            return entry
        if isinstance(node, Start):
            return self._add(_AT_START, None, self._build(node.inner, nxt, leaf))
        if isinstance(node, End):
            return self._build(node.inner, self._add(_AT_END, None, nxt), leaf)
        raise TypeError(f"not a pattern formula: {node!r}")

    def _closure(self, state: int, at_start: bool, at_end: bool) -> frozenset[int]:
        """The consuming and accepting states reachable from state by epsilon
        moves whose assertions hold at the position."""
        reached: set[int] = set()
        stack = [state]
        while stack:
            s = stack.pop()
            if s in reached:
                continue
            reached.add(s)
            kind = self.kind[s]
            if kind == _SPLIT or (kind == _AT_START and at_start) or (kind == _AT_END and at_end):
                stack.extend(self.out[s])
        return frozenset(s for s in reached if self.kind[s] in (_CONSUME, _ACCEPT))

    def accepts_some_segment(self, events: tuple[Event, ...]) -> bool:
        """One pass over a DFA built on demand, as in Thompson (1968) and
        RE2: events of one class pass the same leaf tests, so the step from
        a set of active states depends only on the event's class and the
        position's class, and is computed once and cached. The first accept
        ends the scan. Once _DFA_CACHE_LIMIT transitions are cached, a
        missing one ends the DFA scan, and plain NFA steps finish the case."""
        last = len(events) - 1
        start_bit, end_bit, edges, event_class = self.start_bit, self.end_bit, self.dfa_edges, self.event_class
        state = 0
        for i, event in enumerate(events):
            cls = (start_bit if i == 0 else 0) | (end_bit if i == last else 0)
            key = event_class(event.attrs)
            nxt = edges[cls][state].get(key)
            if nxt is None:
                if self.dfa_cached >= _DFA_CACHE_LIMIT:
                    return self._run(self.dfa_sets[state], events, i, len(events)) is None
                nxt = self._transition(state, cls, events, i, key)
            if nxt == _ACCEPTING:
                return True
            state = nxt
        return False

    def _transition(self, state: int, cls: int, events: tuple[Event, ...], i: int, key: Hashable) -> int:
        """Compute, cache under the event's class key and return the DFA
        step from state on events[i], at a position of class cls."""
        reached = self._run(self.dfa_sets[state], events, i, i + 1)
        if reached is None:
            nxt = _ACCEPTING
        else:
            frozen = frozenset(reached)
            nxt = self.dfa_ids.get(frozen)
            if nxt is None:
                nxt = self.dfa_ids[frozen] = len(self.dfa_sets)
                self.dfa_sets.append(frozen)
                for table in self.dfa_edges:
                    table.append({})
        self.dfa_edges[cls][state][key] = nxt
        self.dfa_cached += 1
        return nxt

    def _run(self, active: AbstractSet[int], events: tuple[Event, ...], i: int, stop: int) -> AbstractSet[int] | None:
        """Plain NFA steps over events[i:stop], from the states active before
        events[i]: a new run enters before each event, and each active state
        that passes its leaf test moves on. Return the states active after
        events[stop - 1], or None at the first accept."""
        accept, leaf = self.accept, self.leaf
        last = len(events) - 1
        for j, event in enumerate(events[i:stop], i):
            current = active | (self.entry_later if j else self.entry_first)
            follow = self.follow_last if j == last else self.follow_inner
            active = set()
            for s in current:
                test = leaf[s]
                if test is None or test(event):
                    active |= follow[s]
            if accept in active:
                return None
        return active

    def spans(self, events: tuple[Event, ...]) -> Iterator[tuple[int, int]]:
        """Yield (j, starts) once for every end position j at which some
        satisfying nonempty segment ends: bit i of starts is set when the
        segment from events[i] to events[j] satisfies the formula. One pass:
        every active state carries the start positions of the runs inside
        it, as a bitmask, and tests its leaf once per event."""
        accept, leaf = self.accept, self.leaf
        last = len(events) - 1
        active: dict[int, int] = {}
        for j, event in enumerate(events):
            for s in self.entry_later if j else self.entry_first:
                active[s] = active.get(s, 0) | (1 << j)
            follow = self.follow_last if j == last else self.follow_inner
            reached: dict[int, int] = {}
            for s, starts in active.items():
                test = leaf[s]
                if test is None or test(event):
                    for t in follow[s]:
                        reached[t] = reached.get(t, 0) | starts
            starts = reached.pop(accept, 0)
            if starts:
                yield j, starts
            active = reached


def case_satisfies(pattern: CompiledPattern, es: EventSet) -> bool:
    """Does some segment of the case satisfy the pattern? Decided without
    building segments: a root star holds through the empty segment, and any
    other formula by one pass of the pattern's NFA. The case's events must
    have the schema the pattern was compiled for."""
    if matches_empty(pattern.formula):
        return True
    return pattern.nfa.accepts_some_segment(es.events)


def satisfying_segments(pattern: CompiledPattern, es: EventSet) -> MatchResult:
    """All segments of the case satisfying the pattern: the empty segment
    exactly for a root star, the others by one pass of the pattern's NFA,
    sorted once by (span, start) and kept as timestamp pairs. spans yields
    each end position once with a set of start positions, and a case's
    timestamps are distinct, so no pair repeats. The case's events must
    have the schema the pattern was compiled for."""
    ts = es.timestamps
    keys: list[tuple[int, int, int]] = []
    for j, starts in pattern.nfa.spans(es.events):
        end = ts[j]
        # The binary digits of starts, lowest first, line up with ts.
        keys += [(end - start, start, end) for start, bit in zip(ts, bin(starts)[:1:-1]) if bit == "1"]
    keys.sort()
    return MatchResult(tuple([(start, end) for _, start, end in keys]), matches_empty(pattern.formula))


def pattern_select(pattern: CompiledPattern, log: EventLog) -> EventLog:
    """Keep exactly the events of cases with at least one satisfying segment.

    The output is case-closed (a case's events survive together or not at
    all) and the operator is idempotent. Raises SccError when the log's
    schema is not the one the pattern was compiled for.
    """
    pattern.check_schema(log.schema)
    return log.restrict({es.cid for es in event_sets(log) if case_satisfies(pattern, es)})


# --- brute-force oracle ------------------------------------------------------

def _oracle_identifier(expr: IdentifierExpr, event: Event, pattern: CompiledPattern) -> bool:
    # Deliberately re-derived rather than delegating to the engine's matcher.
    if isinstance(expr, Literal):
        if pattern.attribute is None:
            raise UnboundBehaviourName(f"literal {expr.value!r} in a BEHAVIOUR pattern")
        return _attr_value(event, pattern.attribute) == expr.value
    if isinstance(expr, BehaviourRef):
        defn = pattern.behaviour(expr.name)
        for conj in defn.conjuncts:
            if isinstance(conj, AttrEqConst):
                if _attr_value(event, conj.attr) != str(conj.value):
                    return False
            else:
                left, right = _attr_value(event, conj.left), _attr_value(event, conj.right)
                if left is None or left != right:
                    return False
        return True
    if isinstance(expr, OrExpr):
        return _oracle_identifier(expr.left, event, pattern) or _oracle_identifier(
            expr.right, event, pattern
        )
    if isinstance(expr, NotExpr):
        return not _oracle_identifier(expr.inner, event, pattern)
    raise TypeError(f"not an identifier expression: {expr!r}")


class _Oracle:
    def __init__(self, pattern: CompiledPattern, es: EventSet):
        self.pattern = pattern
        self.es = es
        self.memo: dict[tuple[PatternFormula, Segment], bool] = {}

    def span(self, seg: Segment) -> list[int]:
        return [t for t in self.es.timestamps if seg.start <= t <= seg.end]  # type: ignore[operator]

    def satisfies(self, seg: Segment, node: PatternFormula) -> bool:
        key = (node, seg)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self._satisfies(seg, node)
        self.memo[key] = result
        return result

    def _satisfies(self, seg: Segment, node: PatternFormula) -> bool:
        if seg.is_empty:
            return isinstance(node, Star)
        if isinstance(node, Identifier):
            return seg.start == seg.end and _oracle_identifier(
                node.expr, self.es.event_at(seg.start), self.pattern  # type: ignore[arg-type]
            )
        if isinstance(node, AnyEvent):
            return seg.start == seg.end
        if isinstance(node, Start):
            return seg.start == self.es.timestamps[0] and self.satisfies(seg, node.inner)
        if isinstance(node, End):
            return seg.end == self.es.timestamps[-1] and self.satisfies(seg, node.inner)
        if isinstance(node, Follows):
            inside = self.span(seg)
            for ta in inside:
                if not self.satisfies(Segment.interval(seg.start, ta), node.left):  # type: ignore[arg-type]
                    continue
                for tb in inside:
                    if tb > ta and self.satisfies(Segment.interval(tb, seg.end), node.right):  # type: ignore[arg-type]
                        return True
            return False
        if isinstance(node, DirectlyFollows):
            for ta in self.span(seg):
                if ta == seg.end:
                    continue
                tb = self.es.successor(ta)
                if tb is None or tb > seg.end:  # type: ignore[operator]
                    continue
                if self.satisfies(Segment.interval(seg.start, ta), node.left) and self.satisfies(  # type: ignore[arg-type]
                    Segment.interval(tb, seg.end), node.right  # type: ignore[arg-type]
                ):
                    return True
            return False
        if isinstance(node, Star):
            for ta in self.span(seg):
                if not self.satisfies(Segment.interval(seg.start, ta), node.inner):  # type: ignore[arg-type]
                    continue
                if ta == seg.end:
                    return True
                rest = Segment.interval(self.es.successor(ta), seg.end)  # type: ignore[arg-type]
                if self.satisfies(rest, node):
                    return True
            return False
        raise TypeError(f"not a pattern formula: {node!r}")


def oracle_satisfying_segments(
    pattern: CompiledPattern, es: EventSet, bound: int = DEFAULT_ORACLE_BOUND
) -> MatchResult:
    """Exhaustive re-computation of satisfying_segments for small cases.

    Checks every candidate segment (empty included) against the satisfaction
    clauses by trying all sub-segment splits. Refuses event sets larger than
    ``bound``.
    """
    if len(es) > bound:
        raise OracleBoundExceeded(f"event set has {len(es)} events, oracle bound is {bound}")
    oracle = _Oracle(pattern, es)
    found = sorted(
        (s for s in enumerate_segments(es) if oracle.satisfies(s, pattern.formula)), key=Segment.sort_key
    )
    pairs = tuple((s.start, s.end) for s in found)
    return MatchResult(pairs, oracle.satisfies(EMPTY_SEGMENT, pattern.formula))  # type: ignore[arg-type]
