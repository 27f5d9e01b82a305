"""One fresh-process repetition of a workload; started by run.py.

Usage: child.py WORKLOAD SEED MODE, where MODE is
  setup   import ppavlab and its CLI, build the inputs, stop before the
          first timed call;
  pass    do that, then run one pass with tracing off;
  warm    a registry pass with tracing off, then a second in-process
          run_checks, timing every check in both (cold and warm);
  traced  wrap the layers (tracer.py), then run one pass.
The last line of stdout is one JSON object with the timings, the per-op
output digests and, when traced, the layer metrics.  `ready` is the
perf_counter reading (CLOCK_MONOTONIC, shared by all processes) just before
the first timed call, so the parent can measure set-up from its spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ppavlab.cli  # noqa: E402,F401  (set-up cost: the package and its CLI)

import workloads  # noqa: E402


def _timed_checks(timings: dict) -> None:
    """Time each registry check from outside, keyed by check id."""
    from ppavlab import checks

    for check_id, fn in list(checks.CHECKS.items()):
        def timed(opts, fn=fn, check_id=check_id):
            start = time.perf_counter()
            try:
                return fn(opts)
            finally:
                timings.setdefault(check_id, []).append(
                    (time.perf_counter() - start) * 1000.0)
        checks.CHECKS[check_id] = timed


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    ops = workloads.plan(workload, seed)
    from ppavlab import tori

    cache_info = tori.rational_rep.cache_info  # the lru_cache's, before wrapping
    tracer = None
    check_ms: dict = {}
    if mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    elif mode == "warm":
        _timed_checks(check_ms)
    cache_before = cache_info()
    ready = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    digests, extras = workloads.run_pass(workload, ops)
    done = time.perf_counter()
    result = {
        "ready": ready,
        "done": done,
        "wall_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "elapsed_ms": extras.get("elapsed_ms"),
    }
    if mode == "warm":
        from ppavlab.checks import RunOptions, run_checks

        run_checks(None, RunOptions(seed=seed))
        result["check_ms"] = check_ms
    if tracer is not None:
        cache_after = cache_info()
        result["layers"] = tracer.metrics(
            rational_rep_hits=cache_after.hits - cache_before.hits,
            rational_rep_misses=cache_after.misses - cache_before.misses)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
