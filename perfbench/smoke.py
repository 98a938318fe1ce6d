#!/usr/bin/env python3
"""Smoke test of the benchmark itself, and its one-command overview.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json, untraced and traced (1 second
each, seed 7), prints each run's metrics with their units and its
attempted/failed counts, and asserts each run is correct and reports
every named metric as a finite number. Then runs the negative control:
a run that flips one reply byte before its checks must report the
failure and exit non-zero. Exits non-zero if anything failed.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 1
SEED = 7


def run(workload, trace, *extra):
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_metrics(label, result, declared, failures):
    metrics = result["metrics"]
    for name, unit in declared.items():
        if name not in metrics:
            failures.append(f"{label}: metric {name} missing")
            continue
        value = metrics[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: metric {name} is not a finite number: {value!r}")
        if metrics[name].get("unit") != unit:
            failures.append(f"{label}: metric {name} has unit {metrics[name].get('unit')!r}, not {unit!r}")
    for name in sorted(set(metrics) - set(declared)):
        failures.append(f"{label}: undeclared metric {name}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            code, result, stderr = run(workload["name"], trace)
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, stderr tail: {stderr[-500:]!r}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            check_metrics(label, result, {m["name"]: m["unit"] for m in bench[key]}, failures)
            print(f"{label}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in sorted(result["metrics"].items()):
                print(f"  {name:>34} {metric['value']:>16.6f} {metric['unit']}")
            sys.stdout.flush()

    # Negative control: one flipped reply byte must fail the run.
    code, result, _ = run(bench["workloads"][0]["name"], 0, "--flip-reply")
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append(f"negative control passed: exit {code}, result {result}")
    else:
        print(f"negative control failed as it must: exit {code}, failed {result['failed']}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
