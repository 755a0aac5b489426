#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload the binary knows (the ones BENCHMARK.json gates and
`readmostly_si_100k_1c`) for a fraction of a second, once untraced and
once traced, on databases of a few hundred transactions each.  Asserts
that every run is correct and fails no transaction, that it reports
every metric named in BENCHMARK.json with its unit, and that the
workload's output checks ran and passed.  Exits 1 if any run does
not; the first call builds the binary, as `run.py` does.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The output checks each workload must run (the binary may run more).
EXPECTED_CHECKS = {
    "readmostly_si_100k_1c": [
        "sum_equals_initial_plus_increments", "engine_commits_match_client",
        "engine_finished_match_attempts", "max_chain_length_bounded"],
    "transfer_ser_100k_2c": [
        "transfer_sum_preserved", "engine_commits_match_client",
        "engine_finished_match_attempts"],
    "transfer_sharded_durable_2c": [
        "transfer_sum_preserved", "checker_certified_every_commit",
        "checker_zero_violations", "recovery_ok", "recovered_sum_preserved"],
}


def run_once(workload, trace):
    """Problems with one tiny run, as strings (empty when fine)."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.3",
         "--trace", str(trace), "--segment-txns", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return [f"exit {res.returncode}: {res.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    checks = {}
    for line in lines:
        if line.startswith("checks "):
            checks = json.loads(line[len("checks "):])

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("result not correct")
    if not result.get("attempted", 0) >= 1 or result.get("failed") != 0:
        problems.append(f"attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}, units "
                        f"{sorted(n for n in got if got[n] != expected.get(n))}")
    for name in EXPECTED_CHECKS[workload]:
        if checks.get(name) is not True:
            problems.append(f"check {name}: {checks.get(name, 'did not run')}")
    return problems


def main():
    ok = True
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            problems = run_once(workload, trace)
            print(f"{workload} trace {trace}: "
                  f"{'ok' if not problems else 'FAILED'}", flush=True)
            for p in problems:
                print(f"  {p}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
