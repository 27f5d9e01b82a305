#!/usr/bin/env python3
"""Run every registered check and print a plain-text summary table.

The JSON-lines interface lives in the ppav-lab command; this script is the
human-facing version for a quick desk run.  Exit code matches the command:
0 when everything passes, 1 otherwise.
"""

import argparse
import os
import sys

# the checkout's src comes first, so the script runs without an installed ppavlab
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ppavlab.checks import RunOptions, run_checks  # noqa: E402
from ppavlab.cli import GMAX_LIMIT, _gmax  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gmax", type=_gmax, default=6,
                        help=f"largest genus for the per-genus sweeps (1..{GMAX_LIMIT})")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized property checks")
    args = parser.parse_args()

    results = run_checks([], RunOptions(gmax=args.gmax, seed=args.seed))
    width = max(len(r.check_id) for r in results)
    for r in results:
        print(f"{r.check_id:<{width}}  {r.status:<5}  {r.elapsed_ms:>6} ms")
        if r.status != "pass":
            for key, value in r.witnesses.items():
                print(f"{'':<{width}}    {key} = {value}")
    failed = [r for r in results if r.status != "pass"]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
