"""The benchmark's per-layer tracing wraps module attributes of sccq by name
(bench/tracing.py). This keeps those names, and the calls that go through
them, from disappearing unnoticed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

import sccq.cli  # noqa: E402


def test_trace_hooks_see_every_layer(capsys, quotes_csv_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        query = (
            "SELECT cid FROM eventlog WHERE event_name MATCHES ('Review request' ~> 'Send quote') "
            "AND status MATCHES ('NEW' -> 'WIP')"
        )
        assert sccq.cli.main(["query", query, "--log", quotes_csv_path]) == 0
        assert sccq.cli.main(["check", "SELECT eid FROM eventlog", "--log", quotes_csv_path]) == 0
        pattern = "'Review request' ~> 'Send quote'"
        assert sccq.cli.main(["match", pattern, "--log", quotes_csv_path, "--merge-cases"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    for counter in ("event_sets_calls", "case_satisfies_calls", "edb_facts", "rules", "segments_listed"):
        assert tracer.counts[counter] > 0, counter
    spans = {span[0] for span in tracer.spans}
    assert spans >= {
        "cli.main", "eventlog.load", "eventlog.merge", "matcher.satisfying_segments",
        "datalog.translate", "datalog.evaluate",
    }
