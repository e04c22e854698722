"""Command line interface.

Subcommands: query (relational evaluation), match (per-case satisfying
segments), translate (datalog program for a query), check (differential
comparison of the two back ends), gen (random example log as CSV).

Exit codes: 0 success, 1 syntax or binding or data error, 2 I/O error or
bad usage (argparse), 3 back-end or oracle mismatch.

Only translate and check load the Datalog back end, and only gen and
check --random load the generators: query and match start without them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .ast import Query, SimpleMatch
from .engine import compile_plan, execute, explain
from .errors import MalformedCsv, SccError
from .eventlog import EventLog, event_sets, load_event_log, merge_cases, serialize_event_log
from .matcher import compile_pattern, oracle_satisfying_segments, satisfying_segments
from .parser import parse_pattern, parse_query, pretty_print

if TYPE_CHECKING:
    from .datalog import CheckReport


def _add_query_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("query", nargs="?", help="query text (or use --file)")
    sub.add_argument("--file", metavar="PATH", help="read the query text from a file")
    sub.add_argument("--strict-grammar", action="store_true", help="reject constants in behaviour definitions")


def _add_log_arguments(sub: argparse.ArgumentParser, *, required: bool = True) -> None:
    sub.add_argument("--log", required=required, metavar="CSV", help="event log CSV file")
    sub.add_argument("--eid-col", help="column holding the event id")
    sub.add_argument("--cid-col", help="column holding the case id")
    sub.add_argument("--ts-col", help="column holding the timestamp")


def _not_utf8(path: str) -> str:
    """Name the line of a file's first byte that is not UTF-8. Reads the
    file again, as bytes: a decoder reports offsets within its last chunk."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line}: byte {raw[exc.start]:#04x} is not UTF-8"
    return f"{path} is not UTF-8"


def _load(args: argparse.Namespace):
    # utf-8-sig drops the byte order mark that some spreadsheet exports write.
    try:
        with open(args.log, newline="", encoding="utf-8-sig") as fh:
            return load_event_log(fh, eid_col=args.eid_col, cid_col=args.cid_col, ts_col=args.ts_col)
    except UnicodeDecodeError:
        raise MalformedCsv(_not_utf8(args.log)) from None


def _query(args: argparse.Namespace) -> Query:
    """Parse the query text from the positional argument or --file."""
    text = args.query
    if args.file is not None:
        if text is not None:
            raise SccError("give the query either inline or with --file, not both")
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise SccError(_not_utf8(args.file)) from None
    elif text is None:
        raise SccError("missing query text (inline argument or --file)")
    return parse_query(text, strict_grammar=args.strict_grammar)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")


def cmd_query(args: argparse.Namespace) -> int:
    log = _load(args)
    plan = compile_plan(_query(args), log.schema)
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
    if not (args.attribute or log.schema):
        raise SccError(f"{args.log} has no attribute column for the pattern to read")
    attribute = args.attribute or log.schema[0]
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
            # Both hold the case's timestamps and their segments as sorted
            # keys, so they are equal exactly when they hold the same segments.
            if oracle != result:
                mismatches += 1
                print(f"{es.cid}: ORACLE MISMATCH", file=sys.stderr)
        print(f"{es.cid}: {result.text()}")
    return 3 if mismatches else 0


def cmd_translate(args: argparse.Namespace) -> int:
    from .datalog import facts_from_log, facts_to_text, program_to_text, translate_query

    log = _load(args)
    program = translate_query(_query(args), log.schema)
    print(program_to_text(program))
    if args.with_facts:
        print()
        print(facts_to_text(facts_from_log(log)))
    return 0


def cross_check(query: Query, log: EventLog) -> CheckReport:
    """sccq.datalog.cross_check, loaded at the first call. cmd_check looks
    this name up at each call, so a caller may replace it to see every
    report."""
    from .datalog import cross_check

    return cross_check(query, log)


def cmd_check(args: argparse.Namespace) -> int:
    if args.random is not None:
        query_and_log = (args.query, args.file, args.log, args.eid_col, args.cid_col, args.ts_col)
        if args.strict_grammar or any(value is not None for value in query_and_log):
            raise SccError("check takes a query and --log, or --random N, not both")
        import random

        from .gen import random_pair

        rng = random.Random(0 if args.seed is None else args.seed)
        failures = 0
        for i in range(args.random):
            query, log = random_pair(rng)
            report = cross_check(query, log)
            print(f"[{i + 1}/{args.random}] {report.summary()}  {pretty_print(query)}")
            if not report.equal:
                failures += 1
        print(f"{args.random - failures}/{args.random} checks equal")
        return 3 if failures else 0
    if args.seed is not None:
        raise SccError("check takes --seed only with --random N")
    if (args.query is None and args.file is None) or args.log is None:
        raise SccError("check needs a query and --log, or --random N")
    log = _load(args)
    report = cross_check(_query(args), log)
    print(report.summary())
    if not report.equal:
        for row in sorted(report.ra_only, key=repr):
            print(f"  relational only: {row}")
        for row in sorted(report.datalog_only, key=repr):
            print(f"  datalog only:    {row}")
        return 3
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    import random

    from .gen import display_log

    rng = random.Random(args.seed)
    log = display_log(rng, cases=args.cases, max_events=args.events, extra_attrs=args.attrs)
    _emit(serialize_event_log(log))
    return 0


def _count(text: str) -> int:
    """Argument type for counts and bounds: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sccq", description="Query engine for business-process event logs."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="evaluate a query against an event log")
    _add_query_arguments(q)
    _add_log_arguments(q)
    q.add_argument("--format", choices=("csv", "jsonl", "pretty"), default="pretty")
    q.add_argument("--set-semantics", action="store_true", help="deduplicate result rows")
    q.add_argument("--explain", action="store_true", help="print the plan instead of evaluating")
    q.set_defaults(func=cmd_query)

    m = sub.add_parser("match", help="list satisfying segments per case")
    m.add_argument("pattern", help="pattern text")
    _add_log_arguments(m)
    m.add_argument("--attribute", help="attribute the pattern reads (default: first in schema)")
    m.add_argument("--merge-cases", action="store_true",
                   help="merge all cases into one before matching")
    m.add_argument("--oracle-bound", type=_count, metavar="N",
                   help="cross-validate against the brute-force oracle; a case with more than "
                        "N events is an error (exit 1)")
    m.add_argument("--case", metavar="CID", help="restrict the listing to one case")
    m.set_defaults(func=cmd_match)

    t = sub.add_parser("translate", help="print the datalog program for a query")
    _add_query_arguments(t)
    _add_log_arguments(t)
    t.add_argument("--with-facts", action="store_true", help="also print the extracted facts")
    t.set_defaults(func=cmd_translate)

    c = sub.add_parser("check", help="compare relational and datalog results")
    _add_query_arguments(c)
    _add_log_arguments(c, required=False)
    c.add_argument("--random", type=_count, metavar="N",
                   help="check N generated (query, log) pairs instead of a query and --log")
    c.add_argument("--seed", type=int, help="with --random: seed of the generated pairs (default 0)")
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gen", help="print a random example log as CSV")
    g.add_argument("--cases", type=_count, default=3)
    g.add_argument("--events", type=_count, default=5,
                   help="maximum events per case (every case has at least 2)")
    g.add_argument("--attrs", type=_count, default=0, help="extra numeric attribute columns")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)
    return ap


# Built once: parsing arguments leaves the parser unchanged.
_ARG_PARSER = build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    args = _ARG_PARSER.parse_args(argv)
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
