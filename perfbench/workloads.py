"""The three benchmark workloads and the canonical form of their outputs.

A pass runs one workload's operations in the order its seed gives and
returns, per operation, a digest of everything the operation produced.
The seed never changes the set of inputs, only their order (and, for
`registry`, the `--seed` of the randomized check), so passes with
different seeds do the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

GLUE_CASES = (((3, 3), 2), ((2, 2, 2), 3), ((1, 1, 1, 1), 4), ((2, 3), 1))
SCAN_BOUNDS = ((3, 2), (3, 3), (4, 1))
WORKLOADS = ("registry", "glue", "scan")


def case_label(factors, y_dim) -> str:
    return "f" + "-".join(str(g) for g in factors) + f".y{y_dim}"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _grid(m) -> list:
    return [[str(x) for x in row] for row in m.entries]


def plan(workload: str, seed: int) -> list:
    """The operations of one pass, in the order the seed gives."""
    if workload == "registry":
        return [seed]
    cases = {"glue": GLUE_CASES, "scan": SCAN_BOUNDS}[workload]
    return random.Random(seed).sample(cases, len(cases))


# -- canonical outputs ---------------------------------------------------------


def expected_registry_line(line: dict, seed: int) -> dict:
    """A reference line (recorded with seed 0) as it reads for another seed.

    The only seed-dependent output is the seed echoed in the witness of the
    randomized `box-kernel-product` check.
    """
    if line["check_id"] == "box-kernel-product":
        line = json.loads(json.dumps(line))
        line["witnesses"]["seed"] = seed
    return line


def glue_output(glued, report, dec) -> dict:
    return {
        "overlattice": _grid(glued.overlattice),
        "form": _grid(glued.form),
        "actions": [_grid(a) for a in glued.actions],
        "graph": [[str(c) for c in gamma] for gamma in glued.graph],
        "report": {"checks": [[name, bool(ok)] for name, ok in report.checks],
                   "first_failure": report.first_failure,
                   "fixed_dim": report.fixed_dim,
                   "overlattice_index": report.overlattice_index},
        "decomposition": {"y_basis": _grid(dec.y_basis),
                          "x_basis": _grid(dec.x_basis),
                          "y_type": list(dec.y_type),
                          "x_type": list(dec.x_type),
                          "quotient_order": dec.quotient_order},
    }


def scan_output(results) -> list:
    return [[[list(row) for row in r.basis.entries], list(r.type)] for r in results]


# -- one pass ------------------------------------------------------------------


def run_pass(workload: str, ops: list) -> tuple[dict, dict]:
    """Run the operations; return ({op id: digest}, extras).

    An operation that raises gets an "error: ..." entry in place of its
    digest, so it counts as a mismatch against the reference.
    """
    if workload == "registry":
        from ppavlab import cli

        seed = ops[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_code = cli.main(["run", "--seed", str(seed)])
        lines = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
        elapsed_ms = sum(line.pop("elapsed_ms") for line in lines)
        digests = {line["check_id"]: digest(line) for line in lines}
        return digests, {"exit_code": exit_code, "elapsed_ms": elapsed_ms, "lines": lines}
    if workload == "glue":
        from ppavlab.standard_construction import (
            build_standard, decompose_glued, verify_glued)

        digests = {}
        for factors, y_dim in ops:
            try:
                glued = build_standard(factors, y_dim)
                out = glue_output(glued, verify_glued(glued), decompose_glued(glued))
                digests[case_label(factors, y_dim)] = digest(out)
            except Exception as exc:  # a failed operation is a result, not a crash
                digests[case_label(factors, y_dim)] = f"error: {type(exc).__name__}: {exc}"
        return digests, {}
    if workload == "scan":
        from ppavlab.polarizations import scan_subtorus_types

        digests = {}
        for n, height in ops:
            try:
                digests[f"{n}_{height}"] = digest(scan_output(scan_subtorus_types(n, height)))
            except Exception as exc:
                digests[f"{n}_{height}"] = f"error: {type(exc).__name__}: {exc}"
        return digests, {}
    raise ValueError(f"unknown workload {workload!r}")
