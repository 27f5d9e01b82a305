#!/usr/bin/env python3
"""Run `ppav-lab run` and print its results as a plain-text summary table.

Takes the options of `ppav-lab run` (--check, --gmax, --factors, --ydim,
--seed, --json, --list) and exits with its code: 0 when every selected
check passes, 1 otherwise, 2 on a usage error.  `--list` output is printed
as the command prints it.
"""

import contextlib
import io
import json
import os
import sys

# the checkout's src comes first, so the script runs without an installed ppavlab
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ppavlab.cli import main as ppav_lab  # noqa: E402


def main(argv=None) -> int:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = ppav_lab(["run", *(sys.argv[1:] if argv is None else argv)])
    except SystemExit:
        sys.stdout.write(out.getvalue())  # --help's text; a usage error wrote none
        raise
    text = out.getvalue()
    try:
        results = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        results = None
    if not results:
        # --list's tab-separated lines, or nothing after a refused check id
        sys.stdout.write(text)
        return code
    width = max(len(r["check_id"]) for r in results)
    for r in results:
        print(f"{r['check_id']:<{width}}  {r['status']:<5}  {r['elapsed_ms']:>6} ms")
        if r["status"] != "pass":
            for key, value in r["witnesses"].items():
                print(f"{'':<{width}}    {key} = {value}")
    failed = [r for r in results if r["status"] != "pass"]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return code


if __name__ == "__main__":
    sys.exit(main())
