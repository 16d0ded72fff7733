"""The padicdyn benchmark: one command prints every metric and checks every
output.

    python3 bench/run.py --workload fine-digraph|level-scan|survey
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  A run measures for --seconds, by
default BENCHMARK.json's run_seconds.  With --trace 0 it prints the
end-to-end metrics, measured in a subprocess (worker.py) that runs the ops
in-process through padicdyn.cli and starts fresh interpreters to time cold
starts.  With --trace 1 it prints the
per-layer metrics of one traced run instead.  The last line of output is
one JSON object; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import METRICS  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

# a run must end within 180 s
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "vertices_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def run_worker(args, timeout: float) -> tuple[dict, float]:
    """The worker's result and its peak RSS in MiB."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker exited with status {proc.returncode}")
    # ru_maxrss of the descendants reaped so far: the worker's own cold-start
    # probes are much smaller than the worker, so this is the worker's peak
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return json.loads(out.strip().splitlines()[-1]), rss_kib / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description="padicdyn benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float,
                    help="how long to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "padicdyn" / "cli.py").is_file():
        print(f"bench: no padicdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result, rss_mib = run_worker(args, DEADLINE_S)
    metrics = result["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _ in METRICS}
    else:
        units = END_TO_END_UNITS
        metrics["peak_rss_mib"] = rss_mib
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in result["info"].items():
        print(f"  {name}: {value}")
    if args.trace:
        print("  waiting time: none; the library is single-threaded and has no queue")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
