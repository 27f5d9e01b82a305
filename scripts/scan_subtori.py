#!/usr/bin/env python3
"""Tabulate restricted polarization types over bounded-height sublattices.

For the rank-n lattice with the augmented form, every saturated stable
sublattice spanned by primitive vectors of bounded height is restricted
to, and the resulting types are counted by sublattice rank.  The run
aborts loudly if any restriction comes out principal.
"""

import argparse
import os
import sys
from collections import Counter

# the checkout's src comes first, so the script runs without an installed ppavlab
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ppavlab.polarizations import (  # noqa: E402
    BudgetExceeded, PrincipalRestrictionFound, scan_subtorus_types)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, choices=range(2, 5), help="ambient rank (2..4)")
    parser.add_argument("--height", type=int, default=3, choices=range(1, 6),
                        help="largest absolute entry in spanning vectors (1..5)")
    args = parser.parse_args()

    try:
        results = scan_subtorus_types(args.n, args.height)
    except PrincipalRestrictionFound as found:
        print(f"principal restriction found: {found}", file=sys.stderr)
        return 1
    except BudgetExceeded as refused:
        print(f"refused: {refused}", file=sys.stderr)
        return 2

    by_rank: dict[int, Counter] = {}
    for r in results:
        by_rank.setdefault(r.basis.cols, Counter())[r.type] += 1
    print(f"{len(results)} sublattices, height <= {args.height}")
    for rank in sorted(by_rank):
        print(f"\nrank {rank}:")
        for t, count in sorted(by_rank[rank].items()):
            label = ",".join(map(str, t))
            print(f"  type ({label})  x{count}")
    print("\nno principal restricted type")
    return 0


if __name__ == "__main__":
    sys.exit(main())
