"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fo-tiny --seed 1 --seconds 15 --trace 0

Set-up runs the input generator in a fresh interpreter several times
(``setup_s`` is their median).  The workload then runs in this process, which
is fresh, so memo tables and peak RSS do not carry over from another workload.
Human-readable lines come first; the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold the
end-to-end metrics untraced (``--trace 0``) or the per-layer ones traced
(``--trace 1``).  Run from the root of the checkout; it exits with 2 and
prints no result when the checkout has no efgames sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import program
from inputs import WORKLOADS, read_inputs
from spans import Tracer
from speed import SpeedProbe
from workloads import COUNTED, TIMED, Run

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it


def measure_setup(
    workload: str, seed: int, work: Path, probe: SpeedProbe
) -> list[tuple[float, float]]:
    """(start, end) of each set-up: a fresh interpreter imports efgames,
    generates the inputs, writes them and reads them back.  The host's speed
    is probed before and after each one."""
    command = [
        sys.executable, str(HERE / "inputs.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(work),
    ]
    intervals = []
    for _ in range(SETUP_RUNS):
        probe.sample()
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement
        subprocess.run(command, check=True)
        intervals.append((start, time.perf_counter()))
    probe.sample()
    return intervals


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        ef = program.load()
    except (program.ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = program.ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(enabled=bool(args.trace))
    probe = SpeedProbe()
    probe.pin()
    try:
        setup = measure_setup(args.workload, args.seed, work, probe)
        manifest = read_inputs(work)
        run = Run(ef, work, tracer, args.seed)
        probe.start()
        try:
            run.run(manifest, args.seconds)
        finally:
            probe.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = len(run.passes)
    wall_s = statistics.median(probe.rescale(a, b) for a, b in run.passes)
    raw_wall_s = statistics.median(b - a for a, b in run.passes)
    # one latency per query, the median of its answers over passes and
    # copies, so the sample count and the tail's percentile do not depend on
    # how many passes fit
    by_query: dict[int, list[float]] = {}
    raw_by_query: dict[int, list[float]] = {}
    for qid, a, b in run.queries:
        by_query.setdefault(qid, []).append(probe.rescale(a, b) * 1000)
        raw_by_query.setdefault(qid, []).append((b - a) * 1000)
    latencies_ms = [statistics.median(v) for v in by_query.values()]
    raw_ms = [statistics.median(v) for v in raw_by_query.values()]
    p50_ms = statistics.median(latencies_ms)
    tail_ms, tail_pct = tail(latencies_ms)
    setup_s = statistics.median(probe.rescale(a, b) for a, b in setup)
    raw_setup_s = statistics.median(b - a for a, b in setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_ratio = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}  "
          f"passes {passes}  queries {run.attempted}  slowdown {probe.slowdown():.3f} "
          f"over {len(probe.samples)} probes")
    print(f"  wall_s          {wall_s:.4f} s   median pass; {raw_wall_s:.4f} s unscaled")
    print(f"  setup_s         {setup_s:.4f} s   median of {len(setup)}; {raw_setup_s:.4f} s unscaled")
    print(f"  query_p50_ms    {p50_ms:.4f} ms   {statistics.median(raw_ms):.4f} ms unscaled")
    print(f"  query_tail_ms   {tail_ms:.4f} ms   {tail(raw_ms)[0]:.4f} ms unscaled; p{tail_pct:.1f} "
          f"of {len(latencies_ms)} queries, {TAIL_BEYOND} beyond; each the median of its answers")
    print(f"  peak_rss_mb     {peak_rss_mb:.2f} MB")
    print(f"  failed_ratio    {failed_ratio:.4f}   {run.failed} of {run.attempted} queries")
    for line, times in Counter(run.failures).items():
        print(f"  failed {times}x: {line}")
    for line in run.wrong:
        print(f"incorrect: {line}", file=sys.stderr)

    if args.trace:
        self_ms = tracer.self_ms(probe.rescale)
        metrics = {f"{name}_ms": metric(self_ms.get(name, 0.0) / passes, "ms") for name in TIMED}
        metrics.update({name: metric(run.counts[0][name], "count") for name in COUNTED})
        metrics["trace.wall_ms"] = metric(wall_s * 1000, "ms")
        metrics["trace.spans"] = metric(len(tracer.spans) / passes, "count")
        for name, m in metrics.items():
            print(f"  {name:26} {m['value']:.4f} {m['unit']}")
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "query_p50_ms": metric(p50_ms, "ms"),
            "query_tail_ms": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "verified_ratio": metric(1 - failed_ratio, "ratio"),
        }
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
