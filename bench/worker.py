"""One workload, measured in this process: run by run.py as a subprocess,
so that its peak RSS is the workload's own.  Cold starts are measured in
fresh interpreters that this process starts between ops.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from ops import OpResult, run_op  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, Workload, build  # noqa: E402

MIN_PASSES = 2
MIN_SETUP_PROBES = 7
PROBE_EVERY_S = 2.0
TRACE_ROUNDS = 2

# what a shell user pays before the first answer: interpreter start,
# `import padicdyn.cli` and parsing the first invocation
SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import padicdyn.cli
padicdyn.cli.invocation_from_args(sys.argv[1:])
"""


class Tally:
    """Ops attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, argv, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"padicdyn {' '.join(argv)}: {problem}")


def check_pass(w: Workload, results: list[OpResult], tally: Tally, oracles: bool = False) -> None:
    """Check each op of a pass against its recorded answer and, when asked,
    against the oracles.  An op fails at most once per pass."""
    problems = {}
    if oracles:
        if w.name == "fine-digraph":
            found = checks.oracle_fine_digraph(w.ops, results)
        elif w.name == "level-scan":
            found = checks.oracle_level_scan(w.ops, results)
        else:
            found = checks.oracle_survey(w.ops, results)
        problems.update(found)
    for j, (op, res, expected) in enumerate(zip(w.ops, results, w.expected)):
        tally.attempted += 1
        problem = checks.check_result(res, expected) or checks.check_artifacts(
            op, w.artifact_digests) or problems.get(j)
        if problem:
            tally.fail(op.argv, problem)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def warm_up(w: Workload) -> None:
    """Run the first op once, uncounted: the modules are imported by then,
    and the library keeps no cache that a longer warm-up would fill."""
    run_op(w.ops[0].argv)


def timed_op(argv) -> tuple[OpResult, float]:
    res = run_op(argv)
    return res, res.seconds


def setup_probe(argv) -> tuple[None, float]:
    """Seconds for one cold start in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], cwd=ROOT, check=True)
    return None, time.perf_counter() - start


def measure(w: Workload, seconds: float) -> dict:
    """Repeat passes for at least `seconds` and at least MIN_PASSES, with
    cold-start probes spread over the same time.

    Every op and every cold start is timed against the reference kernel
    and scaled to its nominal speed (reference.py), since the shared
    virtual CPU changes speed from one second to the next.  Each op's
    latency, and the set-up time, is the median of its scaled times.
    The worker and its cold starts share one CPU, the one the kernel
    gauges.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    warm_up(w)
    gauge = reference.Gauge()
    times: list[list[float]] = [[] for _ in w.ops]
    setup: list[float] = []

    def probe() -> None:
        setup.append(gauge.measure(lambda: setup_probe(w.ops[0].argv), sample_during=False)[1])

    probe()
    last_probe = start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        results = []
        gauge.restart()
        for samples, op in zip(times, w.ops):
            res, scaled = gauge.measure(lambda: timed_op(op.argv))
            samples.append(scaled)
            results.append(res)
            if time.perf_counter() - last_probe > PROBE_EVERY_S:
                probe()
                last_probe = time.perf_counter()
        check_pass(w, results, tally, oracles=not passes)
        passes += 1
    while len(setup) < MIN_SETUP_PROBES:
        probe()
    q = [round(x * 1e3, 2) for x in statistics.quantiles(gauge.kernel_s, n=4)]
    typical = [statistics.median(samples) for samples in times]
    wall = sum(typical)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "vertices_per_s": sum(op.named_vertices for op in w.ops) / wall,
            "op_p50_ms": percentile(typical, 50) * 1e3,
            "op_p90_ms": percentile(typical, 90) * 1e3,
        },
        "info": {
            "passes": passes,
            "ops_per_pass": len(w.ops),
            "setup_probes": len(setup),
            "named_vertices": sum(op.named_vertices for op in w.ops),
            "reference_kernel_ms": f"median {q[1]}, quartiles {q[0]}-{q[2]}, "
                                   f"nominal {reference.NOMINAL_S * 1e3}",
        },
    }


def trace(w: Workload) -> dict:
    """Untraced and traced passes, alternating, TRACE_ROUNDS times each.
    The per-layer metrics come from the first traced pass, whose work
    counts depend only on the seed; the overhead compares best passes."""
    tally = Tally()
    warm_up(w)
    untraced, traced = [], []
    first = None
    for _ in range(TRACE_ROUNDS):
        results = [run_op(op.argv) for op in w.ops]
        check_pass(w, results, tally)
        untraced.append(sum(r.seconds for r in results))
        tracer = Tracer()
        with tracer:
            results = []
            for op in w.ops:
                tracer.begin_op()
                results.append(run_op(op.argv))
        check_pass(w, results, tally, oracles=first is None)
        traced.append(sum(r.seconds for r in results))
        if first is None:
            first = tracer
    dump = f"{WORK_DIR}/spans-{w.name}-seed{w.seed}.csv.gz"
    first.dump(dump)
    return {
        "tally": tally,
        "metrics": first.metrics(),
        "info": {
            "untraced_wall_s": min(untraced),
            "traced_wall_s": min(traced),
            "trace_overhead": min(traced) / min(untraced),
            "spans": first.span_count(),
            "span_dump": dump,
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    w = build(args.workload, args.seed)
    out = trace(w) if args.trace else measure(w, args.seconds)
    tally = out.pop("tally")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(dict(out, attempted=tally.attempted, failed=tally.failed)))


if __name__ == "__main__":
    main()
