"""Per-layer tracing of one benchmark run, from outside the program.

Each wrapper replaces a module attribute that one sccq module looks up in
another's namespace (sccq.cli.load_event_log, sccq.engine.case_satisfies,
sccq.datalog.evaluate, ...), so no file under src/sccq changes. A wrapper
records a span (name, start, end, parent) in memory and, where the layer's
result has a size, adds it to a counter. Self time is a span's duration minus
that of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics in BENCHMARK.json order: (metric, span name or counter).
TIMES = (
    ("eventlog.load_s", "eventlog.load"),
    ("eventlog.group_s", "eventlog.group"),
    ("eventlog.merge_s", "eventlog.merge"),
    ("parser.parse_s", "parser.parse"),
    ("engine.compile_s", "engine.compile"),
    ("engine.execute_self_s", "engine.execute"),
    ("engine.format_s", "engine.format"),
    ("matcher.case_satisfies_s", "matcher.case_satisfies"),
    ("matcher.satisfying_segments_s", "matcher.satisfying_segments"),
    ("datalog.facts_s", "datalog.facts"),
    ("datalog.translate_s", "datalog.translate"),
    ("datalog.audit_s", "datalog.audit"),
    ("datalog.evaluate_s", "datalog.evaluate"),
    ("cli.self_s", "cli.main"),
)
COUNTS = (
    ("eventlog.events_loaded", "events_loaded"),
    ("eventlog.event_sets_calls", "event_sets_calls"),
    ("engine.rows_out", "rows_out"),
    ("matcher.case_satisfies_calls", "case_satisfies_calls"),
    ("matcher.cases_satisfied", "cases_satisfied"),
    ("matcher.segments_built", "segments_built"),
    ("matcher.segments_listed", "segments_listed"),
    ("datalog.edb_facts", "edb_facts"),
    ("datalog.rules", "rules"),
    ("datalog.idb_tuples", "idb_tuples"),
    ("datalog.helper_tuples", "helper_tuples"),
    ("datalog.output_tuples", "output_tuples"),
)
RATIOS = (
    ("matcher.segments_per_satisfied_case", "segments_built", ("cases_satisfied",)),
    ("datalog.useful_ratio", "output_tuples", ("idb_tuples", "helper_tuples")),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []  # parent -1: a root
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str | None, count=None) -> None:
        """Replace owner.attr by a wrapper that records a span called `name`
        (none if name is None) and calls count(counter, result, *args)."""
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, result, *args)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self, scales: list[float]) -> Counter[str]:
        """Self time by span name, each span's scaled by scales[its index]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start - child[i]) * scales[i]
        return total

    def dump(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]) + "\n")


def _add(key: str, size):
    def count(counts: Counter, result, *args) -> None:
        counts[key] += size(result)
    return count


def _calls(key: str):
    def count(counts: Counter, result, *args) -> None:
        counts[key] += 1
    return count


def _case_satisfies(counts: Counter, satisfied: bool, *args) -> None:
    counts["case_satisfies_calls"] += 1
    counts["cases_satisfied"] += bool(satisfied)


def install(tracer: Tracer) -> None:
    """Wrap the calls between sccq's modules that the CLI's subcommands make."""
    import sccq.cli as cli
    import sccq.datalog as datalog
    import sccq.engine as engine
    import sccq.matcher as matcher

    def evaluated(counts: Counter, rels, program, facts) -> None:
        helpers = {
            item.pred for rule in program.rules for item in rule.body
            if getattr(item, "negated", False) and item.pred not in program.edb_predicates
        }
        for pred, tuples in rels.items():
            if pred not in program.edb_predicates:
                counts["helper_tuples" if pred in helpers else "idb_tuples"] += len(tuples)
        counts["output_tuples"] += len(rels.get(datalog.OUTPUT_PRED, ()))

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_event_log", "eventlog.load", _add("events_loaded", lambda log: len(log.events)))
    for owner in (cli, engine, datalog):
        tracer.wrap(owner, "event_sets", "eventlog.group", _calls("event_sets_calls"))
    tracer.wrap(cli, "merge_cases", "eventlog.merge")
    tracer.wrap(cli, "parse_query", "parser.parse")
    tracer.wrap(cli, "parse_pattern", "parser.parse")
    tracer.wrap(cli, "compile_plan", "engine.compile")
    tracer.wrap(cli, "compile_pattern", "engine.compile")
    tracer.wrap(datalog, "compile_plan", "engine.compile")
    tracer.wrap(cli, "execute", "engine.execute", _add("rows_out", lambda table: len(table.rows)))
    tracer.wrap(datalog, "execute", "engine.execute", _add("rows_out", lambda table: len(table.rows)))
    for method in ("to_csv", "to_jsonl", "to_pretty"):
        tracer.wrap(engine.ResultTable, method, "engine.format")
    tracer.wrap(engine, "case_satisfies", "matcher.case_satisfies", _case_satisfies)
    # Reached only from case_satisfies: the segments an existence check builds.
    tracer.wrap(matcher, "satisfying_segments", None, _add("segments_built", lambda r: len(r.segments)))
    tracer.wrap(cli, "satisfying_segments", "matcher.satisfying_segments",
                _add("segments_listed", lambda r: len(r.segments)))
    tracer.wrap(cli, "cross_check", "datalog.cross_check")
    tracer.wrap(datalog, "facts_from_log", "datalog.facts",
                _add("edb_facts", lambda facts: sum(len(t) for t in facts.values())))
    tracer.wrap(datalog, "translate_query", "datalog.translate", _add("rules", lambda p: len(p.rules)))
    tracer.wrap(datalog, "audit_program", "datalog.audit")
    tracer.wrap(datalog, "evaluate", "datalog.evaluate", evaluated)


def layer_metrics(self_times: Counter, counts: Counter, ops: int) -> dict[str, dict]:
    """Every per-layer metric, per operation; ratios over the whole run."""
    metrics = {}
    for metric, span in TIMES:
        metrics[metric] = {"value": self_times[span] / ops, "unit": "s"}
    for metric, key in COUNTS:
        metrics[metric] = {"value": counts[key] / ops, "unit": "count"}
    for metric, num, den in RATIOS:
        den_total = sum(counts[k] for k in den)
        metrics[metric] = {"value": counts[num] / den_total if den_total else 0.0, "unit": "ratio"}
    return metrics
