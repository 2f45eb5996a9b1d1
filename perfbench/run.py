"""Run the fedseal benchmark, each workload in its own process.

    python3 perfbench/run.py --workload paper_iid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload runs ``bench.py`` in a child process whose BLAS and OpenMP
thread counts are pinned to 1 before numpy loads, since the thread count
changes both timings and results.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
with ``--workload all`` the metric names are prefixed by the workload.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Below the 180 s a run may take, so a hung child is killed and reported.
CHILD_TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a child process; its result, or None on failure."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"run: {workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"run: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_table(results: dict[str, dict]) -> None:
    workloads = list(results)
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<40}" + "".join(f"{w:>16}" for w in workloads) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in results.values())
        print(f"{name:<40}{cells}  {results[workloads[0]]['metrics'][name]['unit']}")
    fail = "".join(f"{r['failed'] / r['attempted']:>16.4g}" for r in results.values())
    print(f"{'round_fail_frac':<40}{fail}  ratio")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the fedseal benchmark.")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[workload] = result
    print_table(results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
