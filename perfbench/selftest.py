#!/usr/bin/env python3
"""Benchmark self-tests.  Run from the repository root:

    python3 perfbench/selftest.py

1. A short-horizon run of every workload, in both modes, must exit 0 and
   end with the result object: exactly the keys correct, attempted, failed
   and metrics; correct, nothing failed, and every metric BENCHMARK.json
   names for that mode with its unit.  On the serial workloads a correct
   --trace 1 result means the decorated stack reproduced the plain
   stack's fingerprint digest.
2. Without the simulator sources (only BENCHMARK.json and perfbench/), the
   benchmark must exit non-zero and print no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["city_serial", "static_crowd", "city_world2", "city_fleet2"]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace):
    p = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}: {p.stderr.strip()[-400:]}"]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}: {p.stderr.strip()[-400:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(expected):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if m.get("unit") != expected.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
    return errors


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    try:
        p = run_bench(bare, "city_serial", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}",
                  flush=True)
            errors += found
    found = check_refuses_without_sources()
    print(f"refuses without sources: {'FAIL' if found else 'ok'}", flush=True)
    errors += found
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
