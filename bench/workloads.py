"""Seeded inputs, fixed operation lists and the reference evaluator.

The short-case input is drawn by sccq.gen.display_log; everything else here
stands apart from sccq. Every expected output is computed from the generated
rows alone: row filters are applied to the rows directly, each fixed MATCHES
pattern is decided by a hand-written regular expression over the case's
event sequence (one character per event), and the segment listings are
checked against closed forms or a direct enumeration. Expected tables are
kept as digests, so the harness holds little memory while sccq runs.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The value pools of sccq.gen.display_log, from which short-cases is drawn.
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
HEADER = ("eid", "cid", "ts", "event_name", "resource")
COLUMN = {name: i for i, name in enumerate(HEADER)}

# Long cases add one rare activity, so that some cases fail the selections
# that need it. It stands at fixed positions (0-based, by case), because the
# cost of the selections that name it grows with how far into a case it
# stands; so that cost does not move with the seed.
RARE = "escalate"
LONG_ACTIVITIES = ACTIVITIES + (RARE,)
RARE_AT = {"0001": (70,), "0003": (40, 100)}

SHORT_CASES, SHORT_MAX_EVENTS = 1000, 20
# Case sizes are fixed so that every seed costs the matcher the same.
LONG_SIZES = (100, 115, 130, 150)
MERGE_SIZES = (40, 44, 52)  # 136 events in the merged case: even
LISTED_CASE = "0002"  # 115 events
# Every check runs on the 42-event log. The OR/NOT and BEHAVIOUR checks run
# again on a 51-event log, at about three times the cost: a fifth of the
# operations, so that the 90th percentile falls among them rather than at
# the edge of the cheaper checks' samples.
DIFF_SIZES = (9, 10, 11, 12)
DIFF_LARGE_SIZES = (15, 17, 19)
DIFF_LARGE_QUERIES = (2, 4)
DIFF_NAMES = ("a", "b", "c", "d")
DIFF_RESOURCES = ("x", "y")
# The null log does not depend on --seed: its check fails on every run.
NULL_LOG_SEED = 0
NULL_SIZES = (5, 6, 7)

Row = tuple  # (eid, cid, ts, event_name, resource); resource may be None


def display_rows(seed: int) -> list[Row]:
    """The rows of sccq.gen.display_log(Random(seed)) at the short-case size."""
    from sccq.gen import display_log

    log = display_log(random.Random(seed), cases=SHORT_CASES, max_events=SHORT_MAX_EVENTS)
    return [(e.eid, e.cid, e.ts, e.value("event_name"), e.value("resource")) for e in log.events]


def sized_rows(
    rng: random.Random,
    sizes: tuple[int, ...],
    names: tuple[str, ...],
    resources: tuple[str, ...],
    null_share: float = 0.0,
) -> list[Row]:
    """Cases of exactly the given sizes, in (cid, ts) order."""
    rows = []
    eid = 1
    for c, size in enumerate(sizes):
        cid = f"{c + 1:04d}"
        ts = rng.randrange(1_000, 1_000_000)
        for _ in range(size):
            ts += rng.randint(1, 1_000)
            name = rng.choice(names)
            resource = None if rng.random() < null_share else rng.choice(resources)
            rows.append((str(eid), cid, ts, name, resource))
            eid += 1
    return rows


def write_csv(path: Path, rows: list[Row]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def group_cases(rows: list[Row]) -> dict[str, list[Row]]:
    cases: dict[str, list[Row]] = {}
    for row in rows:
        cases.setdefault(row[1], []).append(row)
    return cases


class Alphabet:
    """One character per (event_name, resource) pair. A case becomes a string
    and a single-event test becomes a character class."""

    def __init__(self, names: tuple[str, ...], resources: tuple[str | None, ...]):
        pairs = [(n, r) for n in names for r in resources]
        self.symbol = {pair: chr(0x100 + i) for i, pair in enumerate(pairs)}

    def cls(self, *names: str, resource: str | None = None, negate: bool = False) -> str:
        """Events whose event_name is one of `names` (any, if none given) and
        whose resource is `resource` (any, if None)."""
        chars = "".join(
            s for (n, r), s in self.symbol.items()
            if (not names or n in names) and (resource is None or r == resource)
        )
        return ("[^" if negate else "[") + chars + "]"

    def word(self, case: list[Row]) -> str:
        return "".join(self.symbol[(row[3], row[4])] for row in case)


@dataclass(frozen=True)
class Query:
    """A fixed query and what the reference needs to evaluate it."""

    text: str
    columns: tuple[str, ...]
    filters: tuple[tuple[str, str], ...] = ()
    patterns: tuple[str, ...] = ()  # regexes, searched in Alphabet.word(case)


def reference_rows(query: Query, rows: list[Row], alphabet: Alphabet) -> list[tuple]:
    """Rows of every case whose word matches every pattern, after the row
    filters, projected; in (cid, ts) order with duplicates kept."""
    kept = {
        cid for cid, case in group_cases(rows).items()
        if all(re.search(p, alphabet.word(case)) for p in query.patterns)
    }
    return [
        tuple(row[COLUMN[c]] for c in query.columns)
        for row in rows
        if row[1] in kept and all(row[COLUMN[c]] == v for c, v in query.filters)
    ]


# --- output checks -------------------------------------------------------------

def _text(value) -> str:
    return "" if value is None else str(value)


def _digest(value) -> int:
    """A 64-bit digest, stable within the process that compares it."""
    return hash(repr(value))


def table_check(fmt: str, columns: tuple[str, ...], expected: list[tuple]) -> Callable[[str], bool]:
    """Compare `sccq query --format fmt` output with the expected rows."""
    if fmt == "csv":
        want = _digest([list(columns)] + [[_text(v) for v in row] for row in expected])
        return lambda out: _digest(list(csv.reader(io.StringIO(out)))) == want
    if fmt == "jsonl":
        want = _digest([dict(zip(columns, row)) for row in expected])
        return lambda out: _digest([json.loads(line) for line in out.splitlines()]) == want
    want = _digest([list(columns)] + [[_text(v) for v in row] for row in expected])
    rows = len(expected)

    def pretty(out: str) -> bool:
        lines = out.rstrip("\n").split("\n")
        if lines[-1] != f"({rows} rows)" or len(lines) != rows + 3:
            return False
        # Cells are left-justified and joined by two spaces; values hold
        # single spaces at most and are never empty here.
        return _digest([re.split(r" {2,}", line.rstrip()) for line in [lines[0], *lines[2:-1]]]) == want

    return pretty


def segments_text(segments: list[tuple[int, int]]) -> str:
    ordered = sorted(segments, key=lambda s: (s[1] - s[0], s[0]))
    return ", ".join(f"({a},{b})" for a, b in ordered) or "none"


def listing_at_least_three(case: list[Row]) -> str:
    """`(ANY ~> ANY) ~> ANY` holds on exactly the segments of three or more
    events: (n-1)(n-2)/2 of them on n events."""
    ts = [row[2] for row in case]
    return segments_text([(ts[i], ts[j]) for i in range(len(ts)) for j in range(i + 2, len(ts))])


def listing_pairs(case: list[Row], first: str, second: str) -> str:
    """`'first' ~> 'second'`: every (first, later second) event pair."""
    segments = {
        (a[2], b[2]) for i, a in enumerate(case) for b in case[i + 1:]
        if a[3] == first and b[3] == second
    }
    return segments_text(list(segments))


def listing_merged_pairs(n: int) -> str:
    """`START ((ANY -> ANY)*) END` on a merged case of n events (timestamps
    1..n) holds, on the whole case only, iff n is even."""
    return f"merged: {'(1,%d)' % n if n % 2 == 0 else 'none'}\n"


# --- operations ------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One CLI call. An exit code other than 0 counts as a failed operation;
    a zero exit with output that `check` rejects is an incorrect one. `check`
    gets the standard output and, for `sccq check`, the CheckReport that
    sccq.cli.cross_check returned (None otherwise)."""

    label: str
    argv: tuple[str, ...]
    events: int  # events in the log the call reads
    check: Callable[[str, object], bool]


def _query_op(label: str, query: Query, fmt: str, path: Path, rows: list[Row], alphabet: Alphabet) -> Op:
    check = table_check(fmt, query.columns, reference_rows(query, rows, alphabet))
    return Op(
        label,
        ("query", query.text, "--log", str(path), "--format", fmt),
        len(rows),
        lambda out, report: check(out),
    )


def _check_op(label: str, query: Query, path: Path, rows: list[Row], alphabet: Alphabet) -> Op:
    """Both back ends must return exactly the reference rows, as sets."""
    expected = frozenset(reference_rows(query, rows, alphabet))
    want = f"EQUAL ({len(expected)} distinct tuples)\n"

    def check(out: str, report) -> bool:
        return (
            out == want
            and report is not None
            and report.ra_rows == expected
            and report.datalog_rows == expected
        )

    return Op(label, ("check", query.text, "--log", str(path)), len(rows), check)


def _match_op(label: str, pattern: str, path: Path, rows: list[Row], want: str, *extra: str) -> Op:
    return Op(label, ("match", pattern, "--log", str(path), *extra), len(rows), lambda out, report: out == want)


def short_queries(a: Alphabet) -> list[tuple[Query, str]]:
    c = a.cls
    return [
        (Query("SELECT eid, cid, ts, event_name FROM eventlog WHERE resource = 'alice'",
               ("eid", "cid", "ts", "event_name"), (("resource", "alice"),)), "csv"),
        (Query("SELECT cid, ts, resource FROM eventlog WHERE event_name = 'close case' AND resource = 'dave'",
               ("cid", "ts", "resource"), (("event_name", "close case"), ("resource", "dave"))), "jsonl"),
        (Query("SELECT cid, event_name FROM eventlog WHERE event_name MATCHES ('review request' ~> 'send quote')",
               ("cid", "event_name"), (), (f"{c('review request')}.*{c('send quote')}",)), "jsonl"),
        (Query("SELECT eid, ts FROM eventlog WHERE event_name MATCHES ('send quote' -> 'approve order') "
               "AND event_name MATCHES (ANY* -> 'close case') AND resource = 'bob'",
               ("eid", "ts"), (("resource", "bob"),),
               (f"{c('send quote')}{c('approve order')}", f".{c('close case')}")), "pretty"),
        (Query("SELECT cid, ts FROM eventlog WHERE BEHAVIOUR event_name = 'ship goods' AND resource = 'alice' AS s, "
               "event_name = 'send invoice' AS i MATCHES (s ~> i)",
               ("cid", "ts"), (), (f"{c('ship goods', resource='alice')}.*{c('send invoice')}",)), "csv"),
        (Query("SELECT cid FROM eventlog WHERE event_name MATCHES (('send quote' -> 'approve order')* -> 'ship goods')",
               ("cid",), (), (f"(?:{c('send quote')}{c('approve order')})+{c('ship goods')}",)), "jsonl"),
        (Query("SELECT cid, eid FROM eventlog WHERE event_name MATCHES (START ('register request' ~> 'close case') END)",
               ("cid", "eid"), (), (f"^{c('register request')}.*{c('close case')}$",)), "pretty"),
        (Query("SELECT cid, ts FROM eventlog WHERE event_name = 'ship goods'",
               ("cid", "ts"), (("event_name", "ship goods"),)), "pretty"),
    ]


def long_queries(a: Alphabet) -> list[tuple[Query, str]]:
    c = a.cls
    return [
        (Query("SELECT cid, eid FROM eventlog WHERE event_name MATCHES ('review request' ~> 'send quote' ~> 'ship goods')",
               ("cid", "eid"), (), (f"{c('review request')}.*{c('send quote')}.*{c('ship goods')}",)), "csv"),
        (Query(f"SELECT cid, ts FROM eventlog WHERE event_name MATCHES (ANY* -> '{RARE}')",
               ("cid", "ts"), (), (f".{c(RARE)}",)), "csv"),
        (Query(f"SELECT eid, event_name FROM eventlog WHERE event_name MATCHES ('send quote' ~> '{RARE}' ~> 'close case') "
               "AND resource = 'dave'",
               ("eid", "event_name"), (("resource", "dave"),),
               (f"{c('send quote')}.*{c(RARE)}.*{c('close case')}",)), "pretty"),
        (Query(f"SELECT cid FROM eventlog WHERE event_name MATCHES ((ANY ~> ANY) ~> '{RARE}')",
               ("cid",), (), (f".{{2,}}{c(RARE)}",)), "jsonl"),
    ]


def diff_queries(a: Alphabet) -> list[Query]:
    c = a.cls
    return [
        Query("SELECT cid FROM eventlog", ("cid",)),
        Query("SELECT cid, eid FROM eventlog WHERE event_name = 'a' AND resource = 'y'",
              ("cid", "eid"), (("event_name", "a"), ("resource", "y"))),
        Query("SELECT cid, eid FROM eventlog WHERE event_name MATCHES (('a' OR 'b') -> NOT ('c'))",
              ("cid", "eid"), (), (f"{c('a', 'b')}{c('c', negate=True)}",)),
        Query("SELECT eid, ts FROM eventlog WHERE event_name MATCHES ('a' ~> 'd') AND resource = 'x'",
              ("eid", "ts"), (("resource", "x"),), (f"{c('a')}.*{c('d')}",)),
        Query("SELECT cid, event_name FROM eventlog WHERE BEHAVIOUR event_name = 'b' AND resource = 'y' AS p, "
              "resource = 'x' AS q MATCHES (p ~> q)",
              ("cid", "event_name"), (), (f"{c('b', resource='y')}.*{c(resource='x')}",)),
        Query("SELECT cid, resource FROM eventlog WHERE event_name MATCHES (('a' -> 'b')* -> 'c')",
              ("cid", "resource"), (), (f"(?:{c('a')}{c('b')})+{c('c')}",)),
        Query("SELECT cid FROM eventlog WHERE event_name MATCHES (START ('a' OR 'b') ~> 'c' END)",
              ("cid",), (), (f"^{c('a', 'b')}.*{c('c')}$",)),
    ]


# The projected null attribute yields a row from the relational back end and
# none from Datalog, so this check exits 3 until the null divergence is closed.
NULL_QUERY = Query("SELECT eid, resource FROM eventlog", ("eid", "resource"))

SHORT_ALPHABET = Alphabet(ACTIVITIES, RESOURCES)
LONG_ALPHABET = Alphabet(LONG_ACTIVITIES, RESOURCES)
DIFF_ALPHABET = Alphabet(DIFF_NAMES, DIFF_RESOURCES + (None,))


def build_short(seed: int, out: Path) -> list[Op]:
    rows = display_rows(seed)
    path = out / "short.csv"
    write_csv(path, rows)
    queries = short_queries(SHORT_ALPHABET)
    ops = [_query_op(f"S{i + 1}", q, fmt, path, rows, SHORT_ALPHABET) for i, (q, fmt) in enumerate(queries)]
    # The two-MATCHES query costs three to four times any other; it runs once
    # more, in jsonl, so that with two of nine operations the p90 falls
    # inside its samples rather than at their lower edge. The seven others
    # are an odd number, so the median falls inside one query's samples.
    ops.append(_query_op("S4J", queries[3][0], "jsonl", path, rows, SHORT_ALPHABET))
    return ops


def build_long(seed: int, out: Path) -> list[Op]:
    rng = random.Random(seed)
    rows = [
        (eid, cid, ts, RARE if i in RARE_AT.get(cid, ()) else name, resource)
        for case in group_cases(sized_rows(rng, LONG_SIZES, ACTIVITIES, RESOURCES)).values()
        for i, (eid, cid, ts, name, resource) in enumerate(case)
    ]
    merge = sized_rows(rng, MERGE_SIZES, ACTIVITIES, RESOURCES)
    path, merge_path = out / "long.csv", out / "merge.csv"
    write_csv(path, rows)
    write_csv(merge_path, merge)
    cases = group_cases(rows)
    ops = [
        _query_op(f"L{i + 1}", q, fmt, path, rows, LONG_ALPHABET)
        for i, (q, fmt) in enumerate(long_queries(LONG_ALPHABET))
    ]
    pairs = "".join(
        f"{cid}: {listing_pairs(case, 'send quote', 'ship goods')}\n" for cid, case in cases.items()
    )
    ops += [
        _match_op("L5", "(ANY ~> ANY) ~> ANY", path, rows,
                  f"{LISTED_CASE}: {listing_at_least_three(cases[LISTED_CASE])}\n", "--case", LISTED_CASE),
        _match_op("L6", "'send quote' ~> 'ship goods'", path, rows, pairs),
        _match_op("L7", "START ((ANY -> ANY)*) END", merge_path, merge,
                  listing_merged_pairs(len(merge)), "--merge-cases"),
    ]
    return ops


def build_differential(seed: int, out: Path) -> list[Op]:
    rng = random.Random(seed)
    queries = diff_queries(DIFF_ALPHABET)
    rows = sized_rows(rng, DIFF_SIZES, DIFF_NAMES, DIFF_RESOURCES)
    large = sized_rows(rng, DIFF_LARGE_SIZES, DIFF_NAMES, DIFF_RESOURCES)
    path, large_path = out / "diff.csv", out / "diff-large.csv"
    write_csv(path, rows)
    write_csv(large_path, large)
    ops = [_check_op(f"D{i + 1}", q, path, rows, DIFF_ALPHABET) for i, q in enumerate(queries)]
    ops += [_check_op(f"D{i + 1}L", queries[i], large_path, large, DIFF_ALPHABET) for i in DIFF_LARGE_QUERIES]
    null_rows = sized_rows(random.Random(NULL_LOG_SEED), NULL_SIZES, DIFF_NAMES, DIFF_RESOURCES, null_share=0.25)
    if all(row[4] is not None for row in null_rows):
        raise AssertionError("the null log has no null resource")
    path = out / "nulls.csv"
    write_csv(path, null_rows)
    ops.append(_check_op("N1", NULL_QUERY, path, null_rows, DIFF_ALPHABET))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "short-cases": build_short,
    "long-cases": build_long,
    "differential": build_differential,
}
