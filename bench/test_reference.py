"""The benchmark's reference evaluator against sccq's brute-force oracle.

    python3 -m pytest -q bench/test_reference.py

Every fixed MATCHES pattern of the workloads is decided by a regular
expression in workloads.py; here each one must agree with
oracle_satisfying_segments on a few hundred small seeded cases, and each
closed-form listing must equal the oracle's segment set.
"""

from __future__ import annotations

import random
import re
import sys
import zlib
from types import SimpleNamespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import workloads as w  # noqa: E402
from sccq.ast import SimpleMatch  # noqa: E402
from sccq.engine import compile_plan  # noqa: E402
from sccq.eventlog import Event, EventSet  # noqa: E402
from sccq.matcher import compile_pattern, oracle_satisfying_segments  # noqa: E402
from sccq.parser import parse_pattern, parse_query  # noqa: E402

SCHEMA = ("event_name", "resource")
CASES = 300


def event_set(case: list) -> EventSet:
    return EventSet(case[0][1], tuple(
        Event(eid, cid, ts, (("event_name", name), ("resource", resource)))
        for eid, cid, ts, name, resource in case
    ))


def small_cases(seed: int, names: tuple[str, ...], resources: tuple[str, ...], max_events: int = 9):
    rng = random.Random(seed)
    for _ in range(CASES):
        yield w.sized_rows(rng, (rng.randint(1, max_events),), names, resources)


PATTERN_QUERIES = [
    (label, query, alphabet, names, resources)
    for label, queries, alphabet, names, resources in (
        ("short", [q for q, _ in w.short_queries(w.SHORT_ALPHABET)], w.SHORT_ALPHABET, w.ACTIVITIES, w.RESOURCES),
        ("long", [q for q, _ in w.long_queries(w.LONG_ALPHABET)], w.LONG_ALPHABET, w.LONG_ACTIVITIES, w.RESOURCES),
        ("diff", w.diff_queries(w.DIFF_ALPHABET), w.DIFF_ALPHABET, w.DIFF_NAMES, w.DIFF_RESOURCES),
    )
    for query in queries
    if query.patterns
]


@pytest.mark.parametrize("label,query,alphabet,names,resources", PATTERN_QUERIES,
                         ids=[f"{p[0]}:{p[1].text[-60:]}" for p in PATTERN_QUERIES])
def test_pattern_regex_agrees_with_oracle(label, query, alphabet, names, resources):
    plan = compile_plan(parse_query(query.text), SCHEMA)
    assert len(plan.pattern_selections) == len(query.patterns)
    # Draw events from the values the query names, plus one it does not, so
    # that both outcomes are common.
    quoted = set(re.findall(r"'([^']*)'", query.text))
    pool = tuple(n for n in names if n in quoted) + tuple(n for n in names if n not in quoted)[:1]
    for i, (pattern, regex) in enumerate(zip(plan.pattern_selections, query.patterns)):
        outcomes = set()
        for case in small_cases(zlib.crc32(query.text.encode()) + i, pool, resources):
            want = oracle_satisfying_segments(pattern, event_set(case)).satisfied
            assert bool(re.search(regex, alphabet.word(case))) == want, (query.text, case)
            outcomes.add(want)
        assert outcomes == {True, False}, f"{query.text}: only {outcomes} in {CASES} cases"


def oracle_listing(pattern_text: str, case: list) -> str:
    pattern = compile_pattern(SimpleMatch("event_name", parse_pattern(pattern_text)), SCHEMA)
    found = oracle_satisfying_segments(pattern, event_set(case)).segments
    return w.segments_text([(s.start, s.end) for s in found if not s.is_empty])


def test_at_least_three_listing_closed_form():
    for case in small_cases(1, w.ACTIVITIES, w.RESOURCES, max_events=11):
        n = len(case)
        listing = oracle_listing("(ANY ~> ANY) ~> ANY", case)
        assert listing == w.listing_at_least_three(case)
        assert listing.count("(") == (n - 1) * (n - 2) // 2


def test_pair_listing_enumeration():
    pool = ("send quote", "ship goods", "close case")
    for case in small_cases(2, pool, w.RESOURCES, max_events=11):
        want = w.listing_pairs(case, "send quote", "ship goods")
        assert oracle_listing("'send quote' ~> 'ship goods'", case) == want


def test_merged_pairs_closed_form():
    for n in range(1, 12):
        merged = [(str(i), "merged", i, "send quote", "alice") for i in range(1, n + 1)]
        line = f"merged: {oracle_listing('START ((ANY -> ANY)*) END', merged)}\n"
        assert line == w.listing_merged_pairs(n)


def test_null_check_expects_the_null_row():
    rows = [("1", "0001", 5, "a", None), ("2", "0001", 9, "b", "x")]
    assert w.reference_rows(w.NULL_QUERY, rows, w.DIFF_ALPHABET) == [("1", None), ("2", "x")]


def test_check_op_compares_rows_not_only_their_count():
    rows = [("1", "0001", 5, "a", "x"), ("2", "0002", 9, "b", "y")]
    op = w._check_op("T", w.diff_queries(w.DIFF_ALPHABET)[0], Path("t.csv"), rows, w.DIFF_ALPHABET)
    right = frozenset({("0001",), ("0002",)})
    wrong = frozenset({("0001",), ("0003",)})
    line = "EQUAL (2 distinct tuples)\n"
    assert op.check(line, SimpleNamespace(ra_rows=right, datalog_rows=right))
    assert not op.check(line, SimpleNamespace(ra_rows=wrong, datalog_rows=wrong))
    assert not op.check(line, SimpleNamespace(ra_rows=right, datalog_rows=wrong))
    assert not op.check(line, None)
