#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload, runs `--seeds` seeds with tracing off and prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound from BENCHMARK.json.

    python3 wpbench/spread.py --seeds 10 [--workload batch-typical ...]

Run from the repository root. Uses the same command as BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

bench = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--seeds", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=101)
ap.add_argument("--workload", action="append")
ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
args = ap.parse_args()

names = args.workload or [w["name"] for w in bench["workloads"]]
worst = 0.0
for name in names:
    values = {m["name"]: [] for m in bench["end_to_end"]}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.monotonic() - t0)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            sys.exit(f"{name} seed {seed}: run failed (exit {run.returncode})")
        for m in values:
            values[m].append(result["metrics"][m]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{name:14s} {m['name']:15s} median {med:12.4f} {m['unit']:10s} "
              f"spread {spread:.3f} bound {m['bound']}  {json.dumps([round(x, 4) for x in v])}",
              flush=True)
    print(f"{name:14s} wall per run: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s",
          flush=True)
print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
