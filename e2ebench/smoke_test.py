#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny scale, in seconds.

    python3 e2ebench/smoke_test.py [--seconds 2]

Runs `run.py --smoke` for every workload in BENCHMARK.json, untraced and
traced, and asserts that each run exits 0, that every metric BENCHMARK.json
names is printed with its unit (and nothing else), and that every
correctness check passed (correct, failed == 0). Exits 1 on any failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                problems.append(f"{what}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and
                    result["attempted"] >= 1):
                problems.append(f"{what}: correct={result['correct']} "
                                f"failed={result['failed']}\n"
                                f"{done.stderr[-2000:]}")
            units = {name: m.get("unit")
                     for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = set(expected[trace]) - set(units)
                extra = set(units) - set(expected[trace])
                wrong = {n for n in set(units) & set(expected[trace])
                         if units[n] != expected[trace][n]}
                problems.append(f"{what}: missing {sorted(missing)}, "
                                f"unexpected {sorted(extra)}, "
                                f"wrong unit {sorted(wrong)}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{what}: {name} has no numeric value")
            print(f"ok   {what}: {len(units)} metrics, "
                  f"{result['attempted']} operations checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
