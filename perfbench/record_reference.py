"""Write reference.json: the outputs every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; the file in
the repository was recorded at the commit that added the benchmark.  It
holds the registry's JSON lines for seed 0 (without `elapsed_ms`; the
`fail` of `kernel-action` is the documented discrepancy and stays), and a
SHA-256 digest per glue case and per scan bound, with a short summary.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from ppavlab.polarizations import scan_subtorus_types  # noqa: E402
from ppavlab.standard_construction import (  # noqa: E402
    build_standard, decompose_glued, verify_glued)


def main() -> int:
    _, extras = workloads.run_pass("registry", [0])
    glue = {}
    for factors, y_dim in workloads.GLUE_CASES:
        glued = build_standard(factors, y_dim)
        report, dec = verify_glued(glued), decompose_glued(glued)
        glue[workloads.case_label(factors, y_dim)] = {
            "digest": workloads.digest(workloads.glue_output(glued, report, dec)),
            "dim": glued.dim, "overlattice_index": report.overlattice_index,
            "first_failure": report.first_failure,
            "x_type": list(dec.x_type), "y_type": list(dec.y_type)}
    scan = {}
    for n, height in workloads.SCAN_BOUNDS:
        results = scan_subtorus_types(n, height)
        scan[f"{n}_{height}"] = {"digest": workloads.digest(workloads.scan_output(results)),
                                 "count": len(results)}
    reference = {"registry": {"seed": 0, "lines": extras["lines"]},
                 "glue": glue, "scan": scan}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
