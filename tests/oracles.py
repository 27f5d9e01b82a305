"""Independent oracles the tests compare the library against; not part of it."""

import math

from ppavlab.exact_linalg import IntMatrix


def rank_over_field(m: IntMatrix) -> int:
    """Rank over Q, by fraction-free elimination."""
    # fraction-free: eliminate with integer cross-multiplication, and shrink
    # rows by their gcd to bound growth
    a = [list(r) for r in m.entries]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank][col]
        for i in range(rank + 1, m.rows):
            if a[i][col]:
                c = a[i][col]
                row = [lead * x - c * y for x, y in zip(a[i], a[rank])]
                shrink = 0
                for x in row:
                    shrink = math.gcd(shrink, x)
                a[i] = [x // shrink for x in row] if shrink > 1 else row
        rank += 1
    return rank
