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

* a Thompson NFA, compiled once per pattern, serves both selection and
  listing. ``case_satisfies`` decides whether some segment satisfies the
  pattern in one pass over the case's events that stops at the first
  accept; ``satisfying_segments`` lists the segments (for ``sccq match``)
  in one pass whose runs carry their start positions;
* the brute-force oracle re-derives the set top-down by testing every
  candidate segment against the definition clauses, and checks the NFA on
  small cases. It re-derives even the identifier test, and shares only the
  AST and the segment types with the NFA.

The Datalog translation (``datalog.py``) is the second, independent
reference: its root relation is the listing's nonempty part on cases of
any length.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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
from .errors import OracleBoundExceeded, UnboundBehaviourName, UnknownAttribute
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


@dataclass(frozen=True)
class CompiledPattern:
    """A pattern bound to its evaluation mode: a single attribute for plain
    matches, or a list of named behaviour predicates."""

    formula: PatternFormula
    attribute: str | None = None
    behaviours: tuple[BehaviourDef, ...] = ()

    @property
    def is_simple(self) -> bool:
        return self.attribute is not None

    def behaviour(self, name: str) -> BehaviourDef:
        for d in self.behaviours:
            if d.name == name:
                return d
        raise UnboundBehaviourName(f"behaviour name {name!r} is not defined")

    @cached_property
    def nfa(self) -> _Nfa:
        """The automaton of the formula's nonempty segments, built on first use."""
        return _Nfa(self.formula)


def _identifier_leaves(formula: PatternFormula):
    stack: list[PatternFormula | IdentifierExpr] = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Identifier):
            stack.append(node.expr)
        elif isinstance(node, (Follows, DirectlyFollows)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Star, Start, End)):
            stack.append(node.inner)
        elif isinstance(node, (OrExpr,)):
            stack.extend((node.left, node.right))
        elif isinstance(node, NotExpr):
            stack.append(node.inner)
        elif isinstance(node, (Literal, BehaviourRef)):
            yield node


def compile_pattern(condition: SimpleMatch | BehaviourMatch, schema: tuple[str, ...]) -> CompiledPattern:
    """Bind a MATCHES condition against the log schema.

    Raises UnknownAttribute for attribute names outside the schema and
    UnboundBehaviourName for identifiers with no matching behaviour and for
    behaviour names defined more than once.
    """
    if isinstance(condition, SimpleMatch):
        if condition.attribute not in schema:
            raise UnknownAttribute(
                f"attribute {condition.attribute!r} is not in the schema {list(schema)}"
            )
        for leaf in _identifier_leaves(condition.pattern):
            if isinstance(leaf, BehaviourRef):
                raise UnboundBehaviourName(
                    f"behaviour name {leaf.name!r} used outside a BEHAVIOUR match"
                )
        return CompiledPattern(formula=condition.pattern, attribute=condition.attribute)

    names = [d.name for d in condition.behaviours]
    if len(set(names)) != len(names):
        raise UnboundBehaviourName(f"duplicate behaviour names in {names}")
    for d in condition.behaviours:
        for conj in d.conjuncts:
            attrs = (conj.left, conj.right) if isinstance(conj, AttrEqAttr) else (conj.attr,)
            for attr in attrs:
                if attr not in schema:
                    raise UnknownAttribute(
                        f"attribute {attr!r} (behaviour {d.name!r}) is not in the schema {list(schema)}"
                    )
    for leaf in _identifier_leaves(condition.pattern):
        if isinstance(leaf, Literal):
            raise UnboundBehaviourName(
                f"literal {leaf.value!r} in a BEHAVIOUR pattern; identifiers must be behaviour names"
            )
        if leaf.name not in names:
            raise UnboundBehaviourName(f"behaviour name {leaf.name!r} is not defined")
    return CompiledPattern(formula=condition.pattern, behaviours=condition.behaviours)


def _attr_value(event: Event, name: str) -> str | None:
    try:
        return event.value(name)
    except KeyError:
        raise UnknownAttribute(f"attribute {name!r} is not carried by event {event.eid!r}") from None


def _behaviour_holds(conjuncts: tuple[AttrEqAttr | AttrEqConst, ...], event: Event) -> bool:
    for conj in conjuncts:
        if isinstance(conj, AttrEqConst):
            value = _attr_value(event, conj.attr)
            if value is None or value != str(conj.value):
                return False
        else:
            left = _attr_value(event, conj.left)
            right = _attr_value(event, conj.right)
            if left is None or right is None or left != right:
                return False
    return True


def event_matches_identifier(expr: IdentifierExpr, event: Event, pattern: CompiledPattern) -> bool:
    """Does a single event match the identifier expression? A null attribute
    matches no literal, so it does match the literal's negation."""
    if isinstance(expr, Literal):
        if pattern.attribute is None:
            raise UnboundBehaviourName(
                f"literal {expr.value!r} in a BEHAVIOUR pattern; identifiers must be behaviour names"
            )
        return _attr_value(event, pattern.attribute) == expr.value
    if isinstance(expr, BehaviourRef):
        return _behaviour_holds(pattern.behaviour(expr.name).conjuncts, event)
    if isinstance(expr, OrExpr):
        return event_matches_identifier(expr.left, event, pattern) or event_matches_identifier(
            expr.right, event, pattern
        )
    if isinstance(expr, NotExpr):
        return not event_matches_identifier(expr.inner, event, pattern)
    raise TypeError(f"not an identifier expression: {expr!r}")


@dataclass(frozen=True)
class MatchResult:
    """The satisfying segments of one pattern over one event set."""

    segments: frozenset[Segment]

    @property
    def satisfied(self) -> bool:
        return bool(self.segments)

    def ordered(self) -> list[Segment]:
        """Segments by (span, start); the empty segment sorts first."""
        return sorted(self.segments, key=Segment.sort_key)


# --- the automaton: selection and listing -----------------------------------

_CONSUME, _SPLIT, _AT_START, _AT_END, _ACCEPT = range(5)


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

    def __init__(self, formula: PatternFormula):
        self.kind: list[int] = []
        self.leaf: list[IdentifierExpr | None] = []  # None: ANY
        self.out: list[list[int]] = []
        self.accept = self._add(_ACCEPT, None)
        entry = self._build(formula, self.accept)
        # Epsilon closures, resolved once per position class: the first
        # position passes START assertions, the last passes END assertions.
        consuming = [s for s, kind in enumerate(self.kind) if kind == _CONSUME]
        self.entry_first = self._closure(entry, at_start=True, at_end=False)
        self.entry_later = self._closure(entry, at_start=False, at_end=False)
        self.follow_inner = {s: self._closure(self.out[s][0], False, False) for s in consuming}
        self.follow_last = {s: self._closure(self.out[s][0], False, True) for s in consuming}

    def _add(self, kind: int, leaf: IdentifierExpr | None, *out: int) -> int:
        self.kind.append(kind)
        self.leaf.append(leaf)
        self.out.append(list(out))
        return len(self.kind) - 1

    def _build(self, node: PatternFormula, nxt: int) -> int:
        """Add the states of node, continuing to nxt; return its entry."""
        if isinstance(node, Identifier):
            return self._add(_CONSUME, node.expr, nxt)
        if isinstance(node, AnyEvent):
            return self._add(_CONSUME, None, nxt)
        if isinstance(node, DirectlyFollows):
            return self._build(node.left, self._build(node.right, nxt))
        if isinstance(node, Follows):
            gap = self._add(_SPLIT, None, self._build(node.right, nxt))
            self.out[gap].append(self._add(_CONSUME, None, gap))
            return self._build(node.left, gap)
        if isinstance(node, Star):
            loop = self._add(_SPLIT, None, nxt)
            entry = self._build(node.inner, loop)
            self.out[loop].append(entry)
            return entry
        if isinstance(node, Start):
            return self._add(_AT_START, None, self._build(node.inner, nxt))
        if isinstance(node, End):
            return self._build(node.inner, self._add(_AT_END, None, nxt))
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

    def accepts_some_segment(self, pattern: CompiledPattern, events: tuple[Event, ...]) -> bool:
        """One pass: a new run enters at every position, each active state
        tests its leaf once per event, and the first accept ends the scan."""
        accept, leaf = self.accept, self.leaf
        last = len(events) - 1
        active: set[int] = set()
        for i, event in enumerate(events):
            current = active | (self.entry_later if i else self.entry_first)
            follow = self.follow_last if i == last else self.follow_inner
            active = set()
            for s in current:
                expr = leaf[s]
                if expr is None or event_matches_identifier(expr, event, pattern):
                    active |= follow[s]
            if accept in active:
                return True
        return False

    def spans(self, pattern: CompiledPattern, events: tuple[Event, ...]) -> Iterator[tuple[int, int]]:
        """Yield (i, j) for every satisfying nonempty segment from events[i]
        to events[j]. One pass: every active state carries the start
        positions of the runs inside it, as a bitmask, and tests its leaf
        once per event; each start that reaches the accept state at j gives
        a segment ending there."""
        accept, leaf = self.accept, self.leaf
        last = len(events) - 1
        active: dict[int, int] = {}
        for j, event in enumerate(events):
            for s in self.entry_later if j else self.entry_first:
                active[s] = active.get(s, 0) | (1 << j)
            follow = self.follow_last if j == last else self.follow_inner
            reached: dict[int, int] = {}
            for s, starts in active.items():
                expr = leaf[s]
                if expr is None or event_matches_identifier(expr, event, pattern):
                    for t in follow[s]:
                        reached[t] = reached.get(t, 0) | starts
            starts = reached.pop(accept, 0)
            while starts:
                low = starts & -starts
                yield low.bit_length() - 1, j
                starts ^= low
            active = reached


def case_satisfies(pattern: CompiledPattern, es: EventSet) -> bool:
    """Does some segment of the case satisfy the pattern? Decided without
    building segments: a root star holds through the empty segment, and any
    other formula by one pass of the pattern's NFA."""
    if matches_empty(pattern.formula):
        return True
    return pattern.nfa.accepts_some_segment(pattern, es.events)


def satisfying_segments(pattern: CompiledPattern, es: EventSet) -> MatchResult:
    """All segments of the case satisfying the pattern: the empty segment
    exactly for a root star, the others by one pass of the pattern's NFA."""
    ts = es.timestamps
    segments = {Segment.interval(ts[i], ts[j]) for i, j in pattern.nfa.spans(pattern, es.events)}
    if matches_empty(pattern.formula):
        segments.add(EMPTY_SEGMENT)
    return MatchResult(frozenset(segments))


def pattern_select(pattern: CompiledPattern, log: EventLog) -> EventLog:
    """Keep exactly the events of cases with at least one satisfying segment.

    The output is case-closed (a case's events survive together or not at
    all) and the operator is idempotent.
    """
    surviving = {es.cid for es in event_sets(log) if case_satisfies(pattern, es)}
    return EventLog(schema=log.schema, events=tuple(e for e in log.events if e.cid in surviving))


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
    candidates = [EMPTY_SEGMENT, *enumerate_segments(es)]
    return MatchResult(frozenset(s for s in candidates if oracle.satisfies(s, pattern.formula)))
