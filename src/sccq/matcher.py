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

* a Thompson NFA serves both selection and listing: the CompiledPattern
  that ``compile_pattern`` builds once per pattern is that automaton.
  ``compile_pattern`` checks each identifier once and binds it to a test on
  one event that reads attributes by schema position; one NFA step runs
  those tests. ``satisfying_segments`` lists the segments (for ``sccq
  match``) in one pass of that step whose runs carry their start
  positions, as one integer key per segment, sorted once into presentation
  order and printed from per-position strings. ``case_satisfies`` decides
  whether some segment satisfies the pattern in one pass over the case's
  events that stops at the first accept, through a DFA whose transitions
  that step builds on demand. Once the pattern has cached
  ``_DFA_CACHE_LIMIT`` transitions, a case that misses one is decided by
  the listing's pass instead;
* the brute-force oracle re-derives the set top-down by testing every
  candidate segment, named by the positions of its first and last events,
  against the definition clauses, and checks the NFA on small cases. Its
  recursion goes only as deep as the pattern nests, whatever the case's
  length. It re-derives even the identifier test, reading attributes by
  name, and shares only the AST and MatchResult with the NFA.

The Datalog translation (``datalog.py``) is the second, independent
reference: its root relation is the listing's nonempty part on cases of
any length.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from functools import reduce
from operator import itemgetter
from typing import Callable, NamedTuple

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
    SimpleMatch,
    Star,
    Start,
    matches_empty,
)
from .errors import OracleBoundExceeded, SccError, UnboundBehaviourName, UnknownAttribute
from .eventlog import EMPTY_SEGMENT, Event, EventLog, EventSet, Segment, event_sets

DEFAULT_ORACLE_BOUND = 12
LeafTest = Callable[[Event], bool]  # a compiled identifier: does one event match it?
EventClass = Callable[[tuple], Hashable]  # of an event's attrs: equal classes pass the same leaf tests


def conjunct_test(conj: AttrEqAttr | AttrEqConst, position: Callable[[str], int]) -> LeafTest:
    """The conjunct as a test on one event that reads attributes by schema
    position, position(name) giving each. A null value equals nothing, not
    even itself, so a = a holds where a is not null."""
    if isinstance(conj, AttrEqConst):
        i, value = position(conj.attr), str(conj.value)  # never None, so a null fails it
        return lambda event: event.attrs[i][1] == value
    i, j = position(conj.left), position(conj.right)
    return lambda event: (value := event.attrs[i][1]) is not None and value == event.attrs[j][1]


def _behaviour_test(defn: BehaviourDef, position: Callable[[str, str], int]) -> LeafTest:
    tests = [conjunct_test(c, lambda attr: position(attr, defn.name)) for c in defn.conjuncts]
    return reduce(lambda first, then: lambda event: first(event) and then(event), tests)


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
    # keys its transitions on it (see CompiledPattern.accepts_some_segment).
    if isinstance(condition, SimpleMatch):
        attribute, behaviours = condition.attribute, ()
        column = position(attribute)
        literals: dict[str, str] = {}  # each literal, to itself, as literal compiles it

        def literal(value: str) -> LeafTest:
            literals[value] = value
            return conjunct_test(AttrEqConst(attribute, value), position)

        leaf: Callable[[IdentifierExpr], LeafTest] = lambda expr: _leaf_test(expr, literal, None)
        # The column's value when a literal names it, else None: the
        # pattern, not the log, fixes the number of classes.
        event_class: EventClass = lambda attrs: literals.get(attrs[column][1])
    else:
        attribute, behaviours = None, condition.behaviours
        names = [d.name for d in behaviours]
        if len(set(names)) != len(names):
            raise UnboundBehaviourName(f"duplicate behaviour names in {names}")
        named = {d.name: _behaviour_test(d, position) for d in behaviours}
        leaf = lambda expr: _leaf_test(expr, None, named)
        # The event's values in the columns the behaviours read, as they
        # are, since a behaviour may compare two columns.
        columns = {
            schema.index(attr)
            for d in behaviours
            for c in d.conjuncts
            for attr in ((c.attr,) if isinstance(c, AttrEqConst) else (c.left, c.right))
        }
        event_class = itemgetter(*columns) if columns else lambda attrs: None

    return CompiledPattern(condition.pattern, schema, attribute, behaviours, leaf, event_class)


def _leaf_test(
    expr: IdentifierExpr, literal: Callable[[str], LeafTest] | None, named: dict[str, LeafTest] | None
) -> LeafTest:
    """The identifier as a test on one event. In a plain match literal
    compiles each literal and named is None; in a BEHAVIOUR match literal is
    None and named holds each behaviour's test."""
    if isinstance(expr, Literal):
        if literal is None:
            raise UnboundBehaviourName(
                f"literal {expr.value!r} in a BEHAVIOUR pattern; identifiers must be behaviour names"
            )
        return literal(expr.value)
    if isinstance(expr, BehaviourRef):
        if named is None:
            raise UnboundBehaviourName(f"behaviour name {expr.name!r} used outside a BEHAVIOUR match")
        if expr.name not in named:
            raise UnboundBehaviourName(f"behaviour name {expr.name!r} is not defined")
        return named[expr.name]
    if isinstance(expr, OrExpr):
        left, right = _leaf_test(expr.left, literal, named), _leaf_test(expr.right, literal, named)
        return lambda event: left(event) or right(event)
    if isinstance(expr, NotExpr):
        inner = _leaf_test(expr.inner, literal, named)
        return lambda event: not inner(event)
    raise TypeError(f"not an identifier expression: {expr!r}")


def _attr_value(event: Event, name: str) -> str | None:
    try:
        return event.value(name)
    except KeyError:
        raise UnknownAttribute(f"attribute {name!r} is not carried by event {event.eid!r}") from None


class MatchResult(NamedTuple):
    """The satisfying segments of one pattern over one case: the case's
    timestamps ts, the nonempty segments as sorted integer keys, and whether
    the empty segment is one of them.

    With n = len(ts), the segment from ts[i] to ts[j] has the key
    ((ts[j] - ts[i]) * n + i) * n + j. As i and j are below n, integer order
    on keys is order by (span, i, j); ts ascends, so i orders as the start
    does, and a span and a start fix the end. Sorted keys are thus the
    presentation order, by (span, start). The pairs, segments and ordered()
    views are built on each read; the listing itself decodes positions."""

    timestamps: tuple[int, ...]
    keys: tuple[int, ...]
    empty: bool = False

    @classmethod
    def of_positions(
        cls, timestamps: tuple[int, ...], positions: Iterable[tuple[int, int]], empty: bool = False
    ) -> MatchResult:
        """The result holding the segments from timestamps[i] to
        timestamps[j] for the (i, j) in positions, in any order."""
        n = len(timestamps)
        keys = sorted(((timestamps[j] - timestamps[i]) * n + i) * n + j for i, j in positions)
        return cls(timestamps, tuple(keys), empty)

    @property
    def satisfied(self) -> bool:
        return self.empty or bool(self.keys)

    def text(self) -> str:
        """The ``sccq match`` listing: ``empty`` first when it satisfies,
        then ``(start,end)`` per segment; ``none`` when nothing does. With
        fewer segments than events each segment is formatted from its key,
        else each position's two halves are formatted once."""
        ts, n = self.timestamps, len(self.timestamps)
        items = ["empty"] if self.empty else []
        if len(self.keys) < n:
            items += [f"({ts[k // n % n]},{ts[k % n]})" for k in self.keys]
        else:
            left, right = [f"({t}," for t in ts], [f"{t})" for t in ts]
            items += [left[k // n % n] + right[k % n] for k in self.keys]
        return ", ".join(items) or "none"

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The nonempty segments as (start, end) timestamp pairs, in
        presentation order."""
        ts, n = self.timestamps, len(self.timestamps)
        return tuple([(ts[k // n % n], ts[k % n]) for k in self.keys])

    def ordered(self) -> list[Segment]:
        """Segments by (span, start); the empty segment sorts first."""
        nonempty = [Segment.interval(start, end) for start, end in self.pairs]
        return [EMPTY_SEGMENT, *nonempty] if self.empty else nonempty

    @property
    def segments(self) -> frozenset[Segment]:
        """The same segments as a set; the listing itself never needs it."""
        return frozenset(self.ordered())


# --- the automaton: selection and listing -----------------------------------

_CONSUME, _SPLIT, _AT_START, _AT_END, _ACCEPT = range(5)
# The most DFA transitions one pattern caches; past it, a case that misses a
# transition is decided by the listing's pass, and nothing more is cached.
# Building a transition costs about two NFA steps, which pays only if the
# transition is used again: in a BEHAVIOUR match an event's class is its
# values in the columns read, so a log of many such values misses often, and
# the bound caps that waste. The patterns of the benchmark's workloads cache
# at most 64 transitions.
_DFA_CACHE_LIMIT = 1_000
# A lazy-DFA state: its transitions at an inner event and at the last event
# (one dict when the pattern has no END), and the NFA states it stands for.
_DfaState = tuple[dict, dict, frozenset[int]]
_ACCEPTING: _DfaState = ({}, {}, frozenset())  # the step into any set that holds the accept state


class CompiledPattern:
    """A MATCHES condition bound to the schema it was compiled for and to
    its evaluation mode, a single attribute for plain matches or a list of
    named behaviour predicates, as the Thompson automaton for the nonempty
    segments satisfying its formula. The automaton's leaves read attributes
    by schema position, so it answers only on event sets of that schema. It
    compares by identity, as its DFA cache grows while it runs.

    Every operand witness is nonempty, so the automaton is compiled over the
    nonempty semantics: an identifier or ANY is one state that consumes an
    event it matches, ``A -> B`` is concatenation, ``A ~> B`` is A, then a
    gap of ANY*, then B, a star is A+ and START / END are zero-width
    assertions at position 0 / position n. Every fragment consumes at least
    one event, so no cycle of epsilon moves exists. The empty segment is
    left to the caller: a root star holds through it.

    ``_step`` is the one place that runs leaf tests. Listing calls it once
    per event; selection calls it to build each transition of a lazy DFA
    whose states are the sets of NFA states active before an event, run
    entries included, each interned in ``dfa_states`` with its own
    transitions. START lives in the first event's state, built from
    ``entry_first``; END gives each state a second table for the last event.
    """

    def __init__(
        self,
        formula: PatternFormula,
        schema: tuple[str, ...],
        attribute: str | None,
        behaviours: tuple[BehaviourDef, ...],
        leaf: Callable[[IdentifierExpr], LeafTest],
        event_class: EventClass,
    ):
        self.formula, self.schema, self.attribute, self.behaviours = formula, schema, attribute, behaviours
        self.kind: list[int] = []
        self.leaf: list[LeafTest | None] = []  # None: ANY
        self.out: list[list[int]] = []
        self.accept = self._add(_ACCEPT, None)
        entry = self._build(formula, self.accept, leaf)
        # Epsilon closures: a run enters at the first position through START
        # assertions, and follow[last] leaves a state through END assertions
        # at the last position.
        self.entry_first = self._closure(entry, at_start=True, at_end=False)
        self.entry_later = self._closure(entry, at_start=False, at_end=False)
        self.follow = tuple(
            {s: self._closure(self.out[s][0], False, at_end) for s, kind in enumerate(self.kind) if kind == _CONSUME}
            for at_end in (False, True)
        )
        # The lazy DFA of accepts_some_segment: a state's tables map an
        # event's class, event_class(event.attrs), to the next state.
        self.event_class = event_class
        self.has_end = _AT_END in self.kind
        self.dfa_states: dict[frozenset[int], _DfaState] = {}
        self.dfa_cached = 0
        self.dfa_first = self._dfa_state(self.entry_first)

    def behaviour(self, name: str) -> BehaviourDef:
        for d in self.behaviours:
            if d.name == name:
                return d
        raise UnboundBehaviourName(f"behaviour name {name!r} is not defined")

    def check_schema(self, schema: tuple[str, ...]) -> None:
        if schema != self.schema:
            raise SccError(f"pattern compiled for the schema {list(self.schema)} run on {list(schema)}")

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

    def _step(self, active: dict[int, int], event: Event, last: bool) -> dict[int, int]:
        """One NFA step on event, at the last position when last is set:
        each active state that passes its leaf test moves on and carries the
        start positions of its runs, a bitmask, to the states it reaches.
        Return those states, the accept state among them."""
        leaf, follow = self.leaf, self.follow[last]
        reached: dict[int, int] = {}
        for s, starts in active.items():
            test = leaf[s]
            if test is None or test(event):
                for t in follow[s]:
                    reached[t] = reached.get(t, 0) | starts
        return reached

    def _dfa_state(self, states: frozenset[int]) -> _DfaState:
        state = self.dfa_states.get(states)
        if state is None:
            edges: dict = {}
            state = self.dfa_states[states] = (edges, {} if self.has_end else edges, states)
        return state

    def accepts_some_segment(self, events: tuple[Event, ...]) -> bool:
        """One pass over a DFA built on demand, as in Thompson (1968) and
        RE2: events of one class pass the same leaf tests, so the step from
        a set of active states depends only on the event's class and on
        whether the event is the last, and is computed once and cached. The
        first accept ends the scan. Inner events read the inner table and
        the last event the last table; the first transition missing from
        them hands the case to _build_scan."""
        last = len(events) - 1
        event_class, state = self.event_class, self.dfa_first
        for i in range(last):
            nxt = state[0].get(event_class(events[i].attrs))
            if nxt is None:
                return self._build_scan(events, i, state)
            if nxt is _ACCEPTING:
                return True
            state = nxt
        if last < 0:
            return False
        nxt = state[1].get(event_class(events[last].attrs))
        if nxt is None:
            return self._build_scan(events, last, state)
        return nxt is _ACCEPTING

    def _build_scan(self, events: tuple[Event, ...], start: int, state: _DfaState) -> bool:
        """accepts_some_segment from events[start] on, in state, caching each
        transition it misses. A transition missed while _DFA_CACHE_LIMIT of
        them are cached hands the case to the listing's pass, spans, whose
        first satisfying segment decides it."""
        last = len(events) - 1
        accept, entry, event_class = self.accept, self.entry_later, self.event_class
        for i, event in enumerate(events[start:], start):
            key = event_class(event.attrs)
            table = state[i == last]
            nxt = table.get(key)
            if nxt is None:
                if self.dfa_cached >= _DFA_CACHE_LIMIT:
                    return any(self.spans(events))
                active = self._step(dict.fromkeys(state[2], 1), event, i == last)
                nxt = table[key] = _ACCEPTING if accept in active else self._dfa_state(entry.union(active))
                self.dfa_cached += 1
            if nxt is _ACCEPTING:
                return True
            state = nxt
        return False

    def spans(self, events: tuple[Event, ...]) -> Iterator[tuple[int, int]]:
        """Yield (j, starts) once for every end position j at which some
        satisfying nonempty segment ends: bit i of starts is set when the
        segment from events[i] to events[j] satisfies the formula. One pass:
        every active state carries the start positions of the runs inside
        it, as a bitmask, and tests its leaf once per event."""
        last = len(events) - 1
        active: dict[int, int] = {}
        for j, event in enumerate(events):
            for s in self.entry_later if j else self.entry_first:
                active[s] = active.get(s, 0) | (1 << j)
            active = self._step(active, event, j == last)
            starts = active.pop(self.accept, 0)
            if starts:
                yield j, starts


def case_satisfies(pattern: CompiledPattern, es: EventSet) -> bool:
    """Does some segment of the case satisfy the pattern? Decided without
    building segments: a root star holds through the empty segment, and any
    other formula by one pass of the pattern's NFA. The case's events must
    have the schema the pattern was compiled for."""
    if matches_empty(pattern.formula):
        return True
    return pattern.accepts_some_segment(es.events)


def satisfying_segments(pattern: CompiledPattern, es: EventSet) -> MatchResult:
    """All segments of the case satisfying the pattern: the empty segment
    exactly for a root star, the others by one pass of the pattern's NFA,
    kept as MatchResult's integer keys and sorted once. The key of the
    segment from ts[i] to ts[j] is ts[j]*n*n + j - (ts[i]*n - i)*n, so each
    end position gives one base and each start one offset; sorting keys
    orders by (span, start). spans yields each end position once with a set
    of start positions, so no key repeats. The case's events must have the
    schema the pattern was compiled for."""
    ts = es.timestamps
    n = len(ts)
    shifted = [(t * n - i) * n for i, t in enumerate(ts)]
    keys: list[int] = []
    for j, starts in pattern.spans(es.events):
        base = ts[j] * n * n + j
        # The binary digits of starts, lowest first, line up with shifted.
        keys += [base - offset for offset, bit in zip(shifted, bin(starts)[:1:-1]) if bit == "1"]
    keys.sort()
    return MatchResult(ts, tuple(keys), matches_empty(pattern.formula))


def pattern_select(pattern: CompiledPattern, log: EventLog) -> EventLog:
    """Keep exactly the events of cases with at least one satisfying segment.

    The output is case-closed (a case's events survive together or not at
    all) and the operator is idempotent; it is built from the kept case
    runs, without EventLog's sort and check. Raises SccError when the log's
    schema is not the one the pattern was compiled for.
    """
    pattern.check_schema(log.schema)
    events: list[Event] = []
    starts: list[int] = []
    for es in event_sets(log):
        if case_satisfies(pattern, es):
            starts.append(len(events))
            events += es.events
    return EventLog._proven(log.schema, tuple(events), starts)


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
    """The satisfaction clauses, top-down, over the segments of one case
    named by positions: (i, j) runs from events[i] to events[j], and any
    i > j is the empty segment."""

    def __init__(self, pattern: CompiledPattern, es: EventSet):
        self.pattern = pattern
        self.events = es.events
        self.last = len(es.events) - 1
        # Keyed by the node's id: the formula outlives the oracle, and a
        # frozen AST node would hash its whole subtree on every lookup.
        self.memo: dict[tuple[int, int, int], bool] = {}

    def satisfies(self, i: int, j: int, node: PatternFormula) -> bool:
        key = (id(node), i, j)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = self._satisfies(i, j, node)
        return cached

    def _satisfies(self, i: int, j: int, node: PatternFormula) -> bool:
        if i > j:
            return isinstance(node, Star)
        if isinstance(node, Identifier):
            return i == j and _oracle_identifier(node.expr, self.events[i], self.pattern)
        if isinstance(node, AnyEvent):
            return i == j
        if isinstance(node, Start):
            return i == 0 and self.satisfies(i, j, node.inner)
        if isinstance(node, End):
            return j == self.last and self.satisfies(i, j, node.inner)
        if isinstance(node, Follows):
            return any(
                self.satisfies(i, a, node.left) and any(self.satisfies(b, j, node.right) for b in range(a + 1, j + 1))
                for a in range(i, j)
            )
        if isinstance(node, DirectlyFollows):
            return any(self.satisfies(i, a, node.left) and self.satisfies(a + 1, j, node.right) for a in range(i, j))
        if isinstance(node, Star):
            # Settle the star on each shorter suffix (k, j), shortest first,
            # so that reading (a + 1, j) below finds it in the memo: the
            # recursion goes only as deep as the pattern, not the case. Once
            # (i + 1, j) is settled, so is every shorter suffix.
            if (id(node), i + 1, j) not in self.memo:
                for k in range(j, i, -1):
                    self.satisfies(k, j, node)
            return any(
                self.satisfies(i, a, node.inner) and (a == j or self.satisfies(a + 1, j, node))
                for a in range(i, j + 1)
            )
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
    oracle, formula, n = _Oracle(pattern, es), pattern.formula, len(es)
    positions = [(i, j) for i in range(n) for j in range(i, n) if oracle.satisfies(i, j, formula)]
    return MatchResult.of_positions(es.timestamps, positions, oracle.satisfies(0, -1, formula))
