"""Self-test of the benchmark itself (not of ppavlab).

    python3 perfbench/selftest.py [registry] [glue] [scan]

For each workload (default: all three) it runs one untraced and two traced
children with the same seed, then checks that
  * every output digest of all three equals reference.json, so the traced
    outputs equal the untraced ones;
  * every work counter (every traced metric that is not a time) is
    identical in the two traced runs;
  * every metric a traced child reports is listed in BENCHMARK.json.
Finally it checks that run.py fails, without printing a result, in a copy
holding only BENCHMARK.json and perfbench/.  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run
import workloads

SEED = 7


def check_workload(workload: str, reference: dict, per_layer: dict) -> list[str]:
    problems = []
    deadline = time.perf_counter() + 600.0
    expected = run.expected_digests(reference, workload, SEED)
    plain = run.spawn(workload, SEED, "pass", deadline)
    first = run.spawn(workload, SEED, "traced", deadline)
    second = run.spawn(workload, SEED, "traced", deadline)
    for label, child in (("untraced", plain), ("traced", first), ("traced again", second)):
        if run.mismatches(child, expected):
            problems.append(f"{workload}: {label} outputs differ from the reference")
    counters = {name for name, (_value, unit) in first["layers"].items() if unit != "s"}
    for name in sorted(counters):
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"{workload}: counter {name} differs between traced runs: "
                            f"{first['layers'][name][0]} vs {second['layers'][name][0]}")
    for name, (_value, unit) in first["layers"].items():
        if per_layer.get(name) != unit:
            problems.append(f"{workload}: {name} [{unit}] is not in BENCHMARK.json")
    print(f"{workload}: {len(counters)} counters compared, "
          f"untraced {plain['wall_s']:.2f} s, traced {first['wall_s']:.2f} s "
          f"and {second['wall_s']:.2f} s")
    return problems


def check_bare_copy() -> list[str]:
    """run.py must fail cleanly where only the benchmark's own files exist."""
    bare = os.path.join(run.ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py printed a result without ppavlab sources"]
    return []


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        per_layer = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    problems = []
    for workload in names:
        problems += check_workload(workload, reference, per_layer)
    problems += check_bare_copy()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
