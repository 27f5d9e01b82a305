"""ppavlab benchmark runner: one run of one workload.

    python3 perfbench/run.py --workload {registry,glue,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is loaded from `src/`.
Each repetition of a workload is a fresh child process (child.py), one at a
time, one thread: a closed loop with a single caller.  So no lru_cache
outlives one pass, as for a user's `ppav-lab run`.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: passes repeat
while the next one is expected to end within --seconds (at least two), and
the medians are reported.  --trace 1 runs one pass with tracing off and one
with every layer wrapped (tracer.py) and reports the per-layer metrics.
Every pass's outputs are checked against reference.json.  The last line of
stdout is the result object; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 15       # set-up-only children per run, besides the passes
MIN_PASSES = 2           # so a run's median never rests on a single pass
RUN_LIMIT_S = 170.0      # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    # Bytecode is cached inside the checkout, so set-up measures import,
    # not compilation; the first (uncounted) child of a run fills it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion; its result plus the parent's spawn time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, workload, str(seed), mode],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child of {workload} passed the run's time limit")
    end = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise BenchError(f"{mode} child of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["spawned"], result["exited"] = start, end
    result["setup_s"] = result["ready"] - start
    return result


def expected_digests(reference: dict, workload: str, seed: int) -> dict:
    if workload == "registry":
        return {line["check_id"]: workloads.digest(workloads.expected_registry_line(line, seed))
                for line in reference["registry"]["lines"]}
    return {key: entry["digest"] for key, entry in reference[workload].items()}


def mismatches(result: dict, expected: dict) -> int:
    return sum(1 for key, want in expected.items() if result["digests"].get(key) != want)


def host_reference_s() -> float:
    """A fixed pure-Python loop, timed: how fast this host is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """--trace 0: end-to-end metrics over as many passes as fit."""
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(spawn(workload, seed, "pass", deadline))
        typical = statistics.median(p["exited"] - p["spawned"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - began + typical > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
    }
    samples = {"setup_s": setups, "wall_s": [p["wall_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    return passes, metrics, samples


def measure_layers(workload: str, seed: int, deadline: float, names: dict):
    """--trace 1: an untraced and a traced pass; per-layer metrics."""
    plain = spawn(workload, seed, "warm" if workload == "registry" else "pass", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    values = {name: 0 for name in names}
    for name, (value, _unit) in traced["layers"].items():
        if name not in values:
            raise BenchError(f"traced child reported {name}, which BENCHMARK.json lacks")
        values[name] = value
    values["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    if workload == "registry":
        for check_id, (cold, warm) in plain["check_ms"].items():
            values[f"checks.{check_id}.cold_ms"] = cold
            values[f"checks.{check_id}.warm_ms"] = warm
        # the fresh-process `ppav-lab run` is spawn .. end of the CLI call
        values["cli.overhead_s"] = (plain["done"] - plain["spawned"]
                                    - plain["elapsed_ms"] / 1000.0)
    metrics = {name: {"value": values[name], "unit": names[name]} for name in names}
    return [plain, traced], metrics, {"wall_s": [plain["wall_s"], traced["wall_s"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    meta = {"python": platform.python_version(), "commit": git_commit(),
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "host_ref_s": host_reference_s(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "ppavlab", "__init__.py")):
            raise BenchError(f"no ppavlab sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
        expected = expected_digests(reference, args.workload, args.seed)
        spawn(args.workload, args.seed, "setup", deadline)  # fills the bytecode cache
        if args.trace:
            names = {m["name"]: m["unit"] for m in bench["per_layer"]}
            passes, metrics, samples = measure_layers(args.workload, args.seed, deadline, names)
        else:
            passes, metrics, samples = measure_end_to_end(args.workload, args.seed,
                                                          args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = len(expected) * len(passes)
    failed = sum(mismatches(p, expected) for p in passes)
    if args.trace:
        metrics["fail_ratio"]["value"] = failed / attempted
    meta["samples"] = samples
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
