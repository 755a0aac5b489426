#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workload NAME ...]

`--seconds` defaults to `run_seconds` in BENCHMARK.json and `--workload`
to the workloads it gates; any workload the binary knows can be named.

Runs `perfbench/run.py --trace 0` once per seed for each workload, one
after another, prints each run's end-to-end metrics as it ends, and then
for every end-to-end metric its median and its spread: the distance
between the first and third quartiles (`statistics.quantiles(values,
n=4)`) as a share of the median.  The last column is that spread against
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    default=None, help="repeatable; default: all")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for wl in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.monotonic()
            res = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            walls.append(time.monotonic() - t0)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if res.returncode != 0 or not result["correct"] or \
                    result["failed"] != 0:
                print(f"{wl} seed {seed}: incorrect or failed: {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        print(f"{wl}: {args.runs} runs of {args.seconds:g} s, wall "
              f"{min(walls):.1f}-{max(walls):.1f} s per run")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            print(f"  {name:24s} median {med:14.4f}  min {min(vals):12.4f}"
                  f"  max {max(vals):12.4f}  spread {spread:6.1%}"
                  f"  ({spread / bounds[name]:.2f} of bound)")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
