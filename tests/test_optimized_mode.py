"""Library checks survive `python -O`, which strips every `assert`."""

import ast
import json
import os
import pathlib
import subprocess
import sys

from ppavlab.checks import RunOptions, run_checks

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "ppavlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


def test_registry_statuses_unchanged_under_optimize_flag():
    checks = ("standard-build", "subtorus-not-principal", "jacobian-cases")
    argv = [sys.executable, "-O", "-m", "ppavlab.cli", "run"]
    for check_id in checks:
        argv += ["--check", check_id]
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as optimized:
        try:
            plain = {r.check_id: r.status for r in run_checks(checks, RunOptions())}
            out, _ = optimized.communicate(timeout=300)
        finally:
            optimized.kill()
    statuses = {line["check_id"]: line["status"]
                for line in map(json.loads, out.splitlines())}
    assert statuses == plain == {"standard-build": "pass", "subtorus-not-principal": "pass",
                                 "jacobian-cases": "pass"}
