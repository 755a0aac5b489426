#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, check its outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds `perfbench/` (the library sources
plus the benchmark binary) in `.bench_build/perfbench`; later calls only re-run the
incremental build.  Build output goes to stderr.

With `--trace 0` the result carries every end-to-end metric named in
`BENCHMARK.json`, with `--trace 1` every per-layer metric; spans of the
traced run are written to `.bench_build/perfbench/spans/<workload>.csv`.
The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`correct` is true only when the binary's own output checks all passed and
every expected metric is present with its unit.  The exit status is 0 only
when the result is correct; a build failure exits 1 with no result line.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
EXE = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if res.returncode != 0:
            log(f"perfbench: build step exited {res.returncode}: {cmd}")
            return False
    return EXE.exists()


def expected_metrics(trace):
    """{name: unit} for the metric set a run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(report, expected):
    """Problems with one binary report, as strings (empty when fine)."""
    problems = []
    checks = report.get("checks", {})
    if not checks:
        problems.append("no output checks ran")
    problems += [f"check failed: {k}" for k, ok in checks.items() if not ok]
    metrics = report.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"expected {unit}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    problems += [f"unexpected metric {n}" for n in metrics if n not in expected]
    if report.get("attempted", 0) < 1:
        problems.append("no transaction attempted")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-check only: transactions per fresh database (0 = the default).
    ap.add_argument("--segment-txns", type=int, default=0)
    args = ap.parse_args()

    if not build():
        return 1
    expected = expected_metrics(args.trace)

    work_dir = BUILD_DIR / "work" / args.workload
    spans_dir = BUILD_DIR / "spans"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir),
           "--spans-out", str(spans_dir / f"{args.workload}.csv")]
    if args.segment_txns > 0:
        cmd += ["--segment-txns", str(args.segment_txns)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = res.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: binary printed no result (exit {res.returncode})")
        return 1
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: unreadable binary result: {lines[-1][:200]}")
        return 1

    problems = check_result(report, expected)
    if res.returncode != 0:
        problems.append(f"binary exited {res.returncode}")
    for p in problems:
        log(f"perfbench: {p}")
    correct = not problems

    print("provenance " + json.dumps(report.get("provenance", {})))
    print("checks " + json.dumps(report.get("checks", {})))
    print(f"retries {report.get('retries', 0)}")
    metrics = {n: {"value": m["value"], "unit": m["unit"]}
               for n, m in report.get("metrics", {}).items()
               if n in expected and isinstance(m.get("value"), (int, float))}
    print(json.dumps({"correct": correct,
                      "attempted": int(report.get("attempted", 0)),
                      "failed": int(report.get("failed", 0)),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
