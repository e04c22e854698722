"""Command line interface.

Subcommands: query (relational evaluation), match (per-case satisfying
segments), translate (datalog program for a query), check (differential
comparison of the two back ends), gen (random example log as CSV).

Exit codes: 0 success, 1 syntax or binding or data error, 2 I/O error,
3 back-end or oracle mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys

from .ast import SimpleMatch
from .datalog import cross_check, facts_from_log, facts_to_text, program_to_text, translate_query
from .engine import compile_plan, execute, explain
from .errors import SccError
from .eventlog import event_sets, load_event_log, merge_cases, serialize_event_log
from .gen import display_log, random_pair
from .matcher import compile_pattern, oracle_satisfying_segments, satisfying_segments
from .parser import parse_pattern, parse_query, pretty_print


def _add_log_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--log", required=True, metavar="CSV", help="event log CSV file")
    sub.add_argument("--eid-col", help="column holding the event id")
    sub.add_argument("--cid-col", help="column holding the case id")
    sub.add_argument("--ts-col", help="column holding the timestamp")


def _load(args: argparse.Namespace):
    # utf-8-sig drops the byte order mark that some spreadsheet exports write.
    with open(args.log, newline="", encoding="utf-8-sig") as fh:
        return load_event_log(fh, eid_col=args.eid_col, cid_col=args.cid_col, ts_col=args.ts_col)


def _query_text(args: argparse.Namespace) -> str:
    """Query text from the positional argument or --file."""
    if args.file is not None:
        if args.query is not None:
            raise SccError("give the query either inline or with --file, not both")
        with open(args.file, encoding="utf-8") as fh:
            return fh.read()
    if args.query is None:
        raise SccError("missing query text (inline argument or --file)")
    return args.query


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")


def cmd_query(args: argparse.Namespace) -> int:
    log = _load(args)
    query = parse_query(_query_text(args), strict_grammar=args.strict_grammar)
    plan = compile_plan(query, log.schema)
    if args.explain:
        print(explain(plan))
        return 0
    table = execute(plan, log, set_semantics=args.set_semantics)
    if args.format == "csv":
        _emit(table.to_csv())
    elif args.format == "jsonl":
        _emit(table.to_jsonl())
    else:
        _emit(table.to_pretty())
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    log = _load(args)
    if args.merge_cases:
        log = merge_cases(log)
    pattern = parse_pattern(args.pattern)
    attribute = args.attribute or (log.schema[0] if log.schema else "")
    compiled = compile_pattern(SimpleMatch(attribute, pattern), log.schema)
    sets = event_sets(log)
    if args.case is not None:
        sets = [es for es in sets if es.cid == args.case]
        if not sets:
            raise SccError(f"no case {args.case!r} in the log")
    mismatches = 0
    for es in sets:
        result = satisfying_segments(compiled, es)
        if args.oracle_bound is not None:
            oracle = oracle_satisfying_segments(compiled, es, bound=args.oracle_bound)
            if oracle.segments != result.segments:
                mismatches += 1
                print(f"{es.cid}: ORACLE MISMATCH", file=sys.stderr)
        listing = ", ".join(str(s) for s in result.ordered()) or "none"
        print(f"{es.cid}: {listing}")
    return 3 if mismatches else 0


def cmd_translate(args: argparse.Namespace) -> int:
    log = _load(args)
    query = parse_query(_query_text(args), strict_grammar=args.strict_grammar)
    program = translate_query(query, log.schema)
    print(program_to_text(program))
    if args.with_facts:
        print()
        print(facts_to_text(facts_from_log(log)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.random is not None:
        rng = random.Random(args.seed)
        failures = 0
        for i in range(args.random):
            query, log = random_pair(rng)
            report = cross_check(query, log)
            print(f"[{i + 1}/{args.random}] {report.summary()}  {pretty_print(query)}")
            if not report.equal:
                failures += 1
        print(f"{args.random - failures}/{args.random} checks equal")
        return 3 if failures else 0
    if (args.query is None and args.file is None) or args.log is None:
        print("error: check needs a query and --log, or --random N", file=sys.stderr)
        return 1
    log = _load(args)
    query = parse_query(_query_text(args), strict_grammar=args.strict_grammar)
    report = cross_check(query, log)
    print(report.summary())
    if not report.equal:
        for row in sorted(report.ra_only, key=repr):
            print(f"  relational only: {row}")
        for row in sorted(report.datalog_only, key=repr):
            print(f"  datalog only:    {row}")
        return 3
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    log = display_log(rng, cases=args.cases, max_events=args.events, extra_attrs=args.attrs)
    _emit(serialize_event_log(log))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sccq", description="Query engine for business-process event logs."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="evaluate a query against an event log")
    q.add_argument("query", nargs="?", help="query text (or use --file)")
    q.add_argument("--file", metavar="PATH", help="read the query text from a file")
    _add_log_arguments(q)
    q.add_argument("--format", choices=("csv", "jsonl", "pretty"), default="pretty")
    q.add_argument("--set-semantics", action="store_true", help="deduplicate result rows")
    q.add_argument("--strict-grammar", action="store_true",
                   help="reject constants in behaviour definitions")
    q.add_argument("--explain", action="store_true", help="print the plan instead of evaluating")
    q.set_defaults(func=cmd_query)

    m = sub.add_parser("match", help="list satisfying segments per case")
    m.add_argument("pattern", help="pattern text")
    _add_log_arguments(m)
    m.add_argument("--attribute", help="attribute the pattern reads (default: first in schema)")
    m.add_argument("--merge-cases", action="store_true",
                   help="merge all cases into one before matching")
    m.add_argument("--oracle-bound", type=int, metavar="N",
                   help="cross-validate against the brute-force oracle for cases of at most N events")
    m.add_argument("--case", metavar="CID", help="restrict the listing to one case")
    m.set_defaults(func=cmd_match)

    t = sub.add_parser("translate", help="print the datalog program for a query")
    t.add_argument("query", nargs="?", help="query text (or use --file)")
    t.add_argument("--file", metavar="PATH", help="read the query text from a file")
    _add_log_arguments(t)
    t.add_argument("--strict-grammar", action="store_true")
    t.add_argument("--with-facts", action="store_true", help="also print the extracted facts")
    t.set_defaults(func=cmd_translate)

    c = sub.add_parser("check", help="compare relational and datalog results")
    c.add_argument("query", nargs="?", help="query text (omit with --random)")
    c.add_argument("--file", metavar="PATH", help="read the query text from a file")
    c.add_argument("--log", metavar="CSV", help="event log CSV file")
    c.add_argument("--eid-col")
    c.add_argument("--cid-col")
    c.add_argument("--ts-col")
    c.add_argument("--strict-grammar", action="store_true")
    c.add_argument("--random", type=int, metavar="N", help="check N generated (query, log) pairs")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gen", help="print a random example log as CSV")
    g.add_argument("--cases", type=int, default=3)
    g.add_argument("--events", type=int, default=5, help="maximum events per case")
    g.add_argument("--attrs", type=int, default=0, help="extra numeric attribute columns")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
