"""evframe benchmark: run a workload, check it, print one JSON result line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates (or reuses from ``.bench_cache/``) the workload's inputs from
the seed, then runs the workload in its own child process for about S
seconds.  With ``--trace 0`` it prints the end-to-end metrics, set-up
time among them, with ``--trace 1`` the per-layer metrics of a
separately traced phase.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from inputs import CACHE, inputs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE = 170.0  # seconds; the whole run must end within 180
# The workloads BENCHMARK.json lists, in its order.
WORKLOADS = ("cli_commands", "accumulate_modes")
# Single-threaded numpy everywhere, so runs do not compete for the 2 cores.
ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_workload(workload: str, args) -> dict | None:
    """Run one workload in a child process; None if it could not finish."""
    began = time.perf_counter()
    inputs = inputs_for(workload, args.seed, args.size)
    scratch = CACHE / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, "-s", "-E", str(BENCH / "workloads.py"),
        "--workload", workload, "--inputs", str(inputs), "--scratch", str(scratch),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    if args.trace:
        command += ["--spans", str(CACHE / f"spans-{workload}-{args.seed}.csv")]
    try:
        child = subprocess.run(
            command, env=ENV, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE - (time.perf_counter() - began)),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: workload process timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{workload}: workload process exited with {child.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    samples = result["samples"]
    print(f"# {workload} seed={args.seed} trace={args.trace} samples={samples}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ops_frac':40s} {result['failed'] / result['attempted']:.6g} ratio")
    return {
        "correct": result["failed"] == 0 and not result["trace_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        required=True, help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "evframe" / "__init__.py").is_file():
        print(f"no evframe sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
