#!/usr/bin/env python3
"""Alternate benchmark runs between a parent and a changed checkout.

    python3 scripts/ab_bench.py PARENT CHANGE --workload W --pairs N [--out FILE]

PARENT and CHANGE are source checkouts, each with its own perfbench/.  Each
pair runs `perfbench/run.py --trace 0` once in each checkout, one process
at a time, alternating which side goes first: the parent in even pairs,
the change in odd ones.  Both output lines of every run (its run metadata
and its result) are kept.  After the pairs, TRACED_RUNS `--trace 1` runs
on each side, alternating sides the same way, record their per-layer
metrics; for `registry` each check's minimum cold time over those runs is
printed parent -> change, so the record shows which checks moved and one
slow run does not.

For each end-to-end metric of CHANGE's BENCHMARK.json the summary gives the
two medians, the spread of the parent's runs (the distance between their
quartiles) and how many pairs each side wins; a tie counts for neither.
Every run uses the benchmark's seed 1 and CHANGE's BENCHMARK.json
run_seconds, the same on both sides.  With --out, the workload's record is
merged into that JSON file, which also holds the two commits, the Python
version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SEED = 1  # the seed the benchmark runs with
TRACED_RUNS = 3  # `--trace 1` runs per side


def run_once(checkout: str, workload: str, seconds: float, trace: int) -> dict:
    """One run.py process in the checkout: its metadata and its result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py failed in {checkout} with exit code {proc.returncode}")
    return {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def quartile_spread(values: list[float]) -> float:
    """Third quartile minus first quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, the parent's quartile spread and the pairs each side wins.

    pairs holds one (parent, change) pair of {metric: value} per pair run;
    better maps each metric to "lower" or "higher".
    """
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartile_spread": quartile_spread(parent),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (p - c) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def metric_values(run: dict) -> dict:
    return {name: m["value"] for name, m in run["result"]["metrics"].items()}


def check_times(parent: list[dict], change: list[dict]) -> list[tuple[str, float, float]]:
    """(check id, parent ms, change ms): each checks.<id>.cold_ms, the minimum
    over each side's traced runs.

    Checks come in the first parent trace's order; one that only a side has is left out.
    """
    before = [metric_values(run) for run in parent]
    after = [metric_values(run) for run in change]
    return [(name[len("checks."):-len(".cold_ms")], min(v[name] for v in before),
             min(v[name] for v in after))
            for name in before[0]
            if name.startswith("checks.") and name.endswith(".cold_ms") and name in after[0]]


def alternating(n: int) -> list[tuple[str, str]]:
    """The side order of n runs per side: the parent first in even rounds."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for i, sides in enumerate(alternating(args.pairs)):
        pair = {side: run_once(getattr(args, side), args.workload, seconds, 0)
                for side in sides}
        runs.append(pair)
        print(f"{args.workload} pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} wall_s {metric_values(pair[side])['wall_s']:.4f}" for side in sides),
            file=sys.stderr)
    summary = summarize([(metric_values(r["parent"]), metric_values(r["change"]))
                         for r in runs], better)
    failed = {side: sum(r[side]["result"]["failed"] for r in runs)
              for side in ("parent", "change")}
    traced = {"parent": [], "change": []}
    for sides in alternating(TRACED_RUNS):
        for side in sides:
            traced[side].append(run_once(getattr(args, side), args.workload, seconds, 1))
    record = {"seed": SEED, "seconds": seconds, "summary": summary,
              "failed": failed, "pairs": runs, "traces_parent": traced["parent"],
              "traces_change": traced["change"]}
    for name, s in summary.items():
        print(f"{args.workload} {name}: parent {s['parent_median']:.4f}"
              f" (quartile spread {s['parent_quartile_spread']:.4f}),"
              f" change {s['change_median']:.4f};"
              f" change wins {s['change_wins']}, parent wins {s['parent_wins']}"
              f" of {s['pairs']}")
    print(f"{args.workload} failed operations: parent {failed['parent']},"
          f" change {failed['change']}")
    if args.workload == "registry":  # the other workloads run no check
        for check_id, before, after in check_times(traced["parent"], traced["change"]):
            print(f"registry checks.{check_id}.cold_ms (min of {TRACED_RUNS}):"
                  f" parent {before:.1f}, change {after:.1f}")

    if args.out:
        try:
            with open(args.out, encoding="utf-8") as handle:
                out = json.load(handle)
        except FileNotFoundError:
            out = {}
        out.update({"parent_commit": runs[0]["parent"]["meta"]["commit"],
                    "change_commit": runs[0]["change"]["meta"]["commit"],
                    "python": platform.python_version(), "nproc": os.cpu_count()})
        out.setdefault("workloads", {})[args.workload] = record
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
