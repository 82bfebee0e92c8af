"""Run every workload, untraced and traced, and print one report.

    python3 perfbench/suite.py              # one untraced and one traced run each
    python3 perfbench/suite.py --runs 10    # steadiness: ten seeds per workload

Each run is a fresh ``run.py`` process.  For every workload the report gives
each end-to-end metric from the untraced runs (median, quartiles and their
spread as a share of the median, next to the bound in BENCHMARK.json), then
the per-layer self times and counts of the traced run, and the tracing
overhead: traced wall time minus the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    for workload in args.workload or names:
        seeds = range(args.seed, args.seed + args.runs)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, args.seed, seconds, 1)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results + [traced])
        print(f"\n{workload}: {args.runs} untraced runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"{seconds} s each; correct {correct}; failed_ratio {failed / attempted:.4f} "
              f"({failed} of {attempted} queries)")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        walls = []
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            if m["name"] == "wall_s":
                walls = values
            print(f"  {m['name']:16} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} "
                  f"{m['bound']:6.2f} {m['unit']}")
            print(f"  {'':16} values {' '.join(f'{v:.4f}' for v in values)}")
        layers = traced["metrics"]
        print(f"  traced run, seed {args.seed}, per pass (self time for spans):")
        for name, m in layers.items():
            print(f"    {name:28} {m['value']:14.4f} {m['unit']}")
        untraced_ms = 1000 * statistics.median(walls)
        overhead = layers["trace.wall_ms"]["value"] - untraced_ms
        print(f"  tracing overhead: {overhead:.1f} ms per pass "
              f"({100 * overhead / untraced_ms:.2f} % of the untraced wall_s)")


if __name__ == "__main__":
    main()
