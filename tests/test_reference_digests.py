"""The glue and scan outputs must keep the digests the benchmark recorded.

`perfbench/reference.json` holds a digest of everything `build_standard`,
`verify_glued` and `decompose_glued` produce on each glue case of the
benchmark, and of every sublattice and type `scan_subtorus_types` returns
on each scan bound.  These tests recompute them with the benchmark's own
canonical form, so a change to any glue or scan output fails here, not
only in a benchmark run.  The registry lines of a full `ppav-lab run` are
held to the recorded lines the same way.  They import
`perfbench/workloads.py` without running the benchmark.
"""

import importlib
import json
from pathlib import Path

import pytest

from ppavlab.polarizations import scan_subtorus_types
from ppavlab.standard_construction import build_standard, decompose_glued, verify_glued

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_glue_outputs_match_reference_digests(workloads):
    got, want = {}, {}
    for factors, y_dim in workloads.GLUE_CASES:
        label = workloads.case_label(factors, y_dim)
        glued = build_standard(factors, y_dim)
        out = workloads.glue_output(glued, verify_glued(glued), decompose_glued(glued))
        got[label] = workloads.digest(out)
        want[label] = REFERENCE["glue"][label]["digest"]
    assert got == want


def test_scan_outputs_match_reference_digests(workloads):
    got, want = {}, {}
    for n, height in workloads.SCAN_BOUNDS:
        label = f"{n}_{height}"
        got[label] = workloads.digest(workloads.scan_output(scan_subtorus_types(n, height)))
        want[label] = REFERENCE["scan"][label]["digest"]
    assert got == want


def test_registry_lines_match_reference_digests(workloads):
    seed = 1
    got, extras = workloads.run_pass("registry", [seed])
    want = {line["check_id"]: workloads.digest(workloads.expected_registry_line(line, seed))
            for line in REFERENCE["registry"]["lines"]}
    assert got == want
    # kernel-action is the one check that fails, by the recorded expectation
    assert extras["exit_code"] == 1
