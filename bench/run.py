"""Benchmark for sccq: seeded workloads run through sccq.cli.main in-process.

    python3 bench/run.py --workload short-cases --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --steady 10 --sets 2 --seed 1   # two sets of 10 seeds

One process and one thread. A run makes a fixed number of whole passes over
the workload's operation list, in order; the number depends only on
--seconds. The passes are split into SETUPS blocks, each preceded by a timed
set-up (inputs, CSVs, one checked warm-up pass). Every output is checked
against the reference in workloads.py. The last line of standard output is
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of tracing.py with --trace 1."""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_OPS = 100  # at least ten samples beyond the 90th percentile
SETUPS = 4
# Seconds one pass takes on the 2-core reference host; it only turns
# --seconds into a pass count, so a slower host runs longer, never less.
NOMINAL_PASS_S = {"short-cases": 1.8, "long-cases": 1.1, "differential": 1.9}
# calibration_s() on the reference host when nothing else loads it. Every
# reported time is scaled by CALIBRATION_REF_S / the calibration time measured
# around it; see "Host speed" in README.md.
CALIBRATION_REF_S = 0.6e-3


def import_cli():
    src = ROOT / "src"
    if not (src / "sccq" / "cli.py").is_file():
        print(f"error: no sccq sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import sccq.cli

    return sccq.cli


def calibration_s() -> float:
    """Wall time of a fixed piece of interpreter work: dict updates and
    string formatting. It makes one list and one dict, so it hardly moves
    the garbage collector's counts, which sccq's own allocations drive."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i % 97 * 8 + (i & 7)
        counts[key] = counts.get(key, 0) + 1
    "".join([str(v) for v in counts.values()])
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, before_s: float, after_s: float) -> float:
    """Scale a wall time to the reference host's speed, by the calibration
    times taken just before and just after it."""
    return wall_s * 2 * CALIBRATION_REF_S / (before_s + after_s)


def passes_for(workload: str, ops: int, seconds: int) -> int:
    return max(math.ceil(MIN_OPS / ops), round(seconds / NOMINAL_PASS_S[workload]))


class Tally:
    def __init__(self) -> None:
        self.samples: list[float] = []  # at reference speed
        self.wall: list[float] = []
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.events = 0
        self.failed = 0
        self.incorrect: list[str] = []

    def run(self, cli, op: Op, reports: list) -> None:
        out, err = io.StringIO(), io.StringIO()
        reports.clear()
        before = calibration_s()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(op.argv))
            elapsed = time.perf_counter() - start
        sample = at_reference_speed(elapsed, before, calibration_s())
        self.samples.append(sample)
        self.wall.append(elapsed)
        self.by_label[op.label].append(sample)
        self.events += op.events
        if code != 0:
            self.failed += 1
        elif not op.check(out.getvalue(), reports[-1] if reports else None):
            self.incorrect.append(op.label)


def keep_reports(cli, reports: list):
    """Wrap sccq.cli.cross_check so that each CheckReport lands in `reports`;
    return the original."""
    original = cli.cross_check

    def cross_check(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    cli.cross_check = cross_check
    return original


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = import_cli()
    import_wall_s = time.perf_counter() - STARTED
    calibration_s()  # the first call also warms the calibration itself
    after = calibration_s()
    import_s = at_reference_speed(import_wall_s, after, after)
    out_dir = OUT / f"{workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: list = []
    cross_check = keep_reports(cli, reports)

    # SETUPS blocks, each a timed set-up (inputs, CSVs, one checked warm-up
    # pass) followed by its share of the timed passes. Spreading the set-ups
    # over the run keeps their median from resting on one moment of the host.
    # Each block draws its inputs from its own seed, so that a run's figures
    # rest on SETUPS inputs rather than on the cost of one.
    setups, setups_wall, warm, tally = [], [], Tally(), Tally()
    tracer = Tracer() if trace else None
    span_scales: list[float] = []  # each span's factor to reference speed
    per_label_counts: dict[str, Counter] = defaultdict(Counter)
    for block in range(SETUPS):
        before = calibration_s()
        start = time.perf_counter()
        ops = WORKLOADS[workload](seed * SETUPS + block, out_dir)
        build_s = time.perf_counter() - start
        if block == 0:
            harness_rss_mb = rss_mb()  # before sccq has run any operation
            passes = passes_for(workload, len(ops), seconds)
        build = at_reference_speed(build_s, before, calibration_s())
        for op in ops:
            warm.run(cli, op, reports)
        setups.append(build + sum(warm.samples[-len(ops):]))
        setups_wall.append(build_s + sum(warm.wall[-len(ops):]))
        if tracer:
            install(tracer)
        try:
            for _ in range(passes // SETUPS + (block < passes % SETUPS)):
                for op in ops:
                    before = Counter(tracer.counts) if tracer else None
                    first_span = len(tracer.spans) if tracer else 0
                    tally.run(cli, op, reports)
                    if tracer:
                        per_label_counts[op.label].update(tracer.counts - before)
                        span_scales += [tally.samples[-1] / tally.wall[-1]] * (len(tracer.spans) - first_span)
        finally:
            if tracer:
                tracer.restore()
    cli.cross_check = cross_check

    attempted = len(tally.samples)
    result = {
        "correct": not warm.incorrect and not tally.incorrect,
        "attempted": attempted,
        "failed": tally.failed,
    }
    op_time = sum(tally.samples)
    p50_ms = statistics.median(tally.samples) * 1000
    if tracer:
        result["metrics"] = layer_metrics(tracer.self_times(span_scales), tracer.counts, attempted)
        tracer.dump(out_dir / "spans.jsonl")
    else:
        result["metrics"] = {
            "latency_p50_ms": {"value": p50_ms, "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(tally.samples, n=10)[8] * 1000, "unit": "ms"},
            "events_per_s": {"value": tally.events / op_time, "unit": "events/s"},
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb(), "unit": "MB"},
        }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "ops_per_pass": len(ops),
        "import_s": import_s,
        "import_wall_s": import_wall_s,
        "setups_s": setups,
        "setups_wall_s": setups_wall,
        "wall_latency_p50_ms": statistics.median(tally.wall) * 1000,
        "wall_op_time_s": sum(tally.wall),
        "host_speed": sum(tally.samples) / sum(tally.wall),
        "harness_rss_mb": harness_rss_mb,
        "op_time_s": op_time,
        "latency_p50_ms": p50_ms,
        "incorrect": sorted(set(warm.incorrect + tally.incorrect)),
        "median_ms_by_op": {k: statistics.median(v) * 1000 for k, v in tally.by_label.items()},
        "counts_per_op": {
            k: {name: n / len(tally.by_label[k]) for name, n in c.items()} for k, c in per_label_counts.items()
        },
        "result": result,
    }
    (out_dir / f"result-trace{int(trace)}.json").write_text(json.dumps(details, indent=1) + "\n")
    return result


def run_set(workload: str, runs: int, seed: int, seconds: int) -> list[dict] | None:
    """Run one workload `runs` times, one process at a time, with seeds
    seed, seed+1, ...; None if a run fails."""
    results = []
    for k in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed + k), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{workload} seed {seed + k}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def steady(workloads: list[str], runs: int, sets: int, seed: int, seconds: int) -> int:
    """Run `sets` sets of `runs` runs of each workload, each run with its own
    seed. Print each end-to-end metric's median and quartile spread per set
    next to its bound, and how far each later set's median moved from the
    first set's in the worse direction. Exit 1 if a run fails or is
    incorrect, if the failed share differs between runs, or if a spread or
    a move exceeds its metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        medians: list[dict[str, float]] = []
        for i in range(sets):
            first = seed + i * runs
            results = run_set(workload, runs, first, seconds)
            if results is None:
                ok = False
                break
            shares = {(r["failed"], r["attempted"]) for r in results}
            correct = all(r["correct"] for r in results)
            ok &= correct and len({f / a for f, a in shares}) == 1
            print(f"{workload} set {i + 1} (seeds {first}-{first + runs - 1}): "
                  f"correct={correct}, failed/attempted={sorted(shares)}")
            medians.append({})
            for name, metric in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                med = medians[-1][name] = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                bound = metric["bound"]
                line = f"  {name:15} median {med:12.4f} {metric['unit']:8} spread {spread:6.3f}"
                if i:
                    base = medians[0][name]
                    worse = (med - base) / base if metric["better"] == "lower" else (base - med) / base
                    ok &= worse <= bound
                    line += f"  worse than set 1 by {worse:+.3f}"
                ok &= spread <= bound
                verdict = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                print(f"{line}  bound {bound}  {verdict}", flush=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N", help="run each workload N times and report spreads")
    ap.add_argument("--sets", type=int, default=1, help="with --steady: sets of N runs to compare")
    args = ap.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.steady:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steady(workloads, args.steady, args.sets, args.seed, seconds)
    if args.workload is None:
        ap.error("--workload is required unless --steady is given")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
