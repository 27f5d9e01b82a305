"""Independent oracles the tests compare the library against; not part of it."""

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from ppavlab.exact_linalg import IntMatrix, NotAlternating
from ppavlab.polarizations import FiniteSymplecticGroup, as_vector


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


def pfaffian(m: IntMatrix) -> int:
    """Pfaffian of an even-size antisymmetric integer matrix.

    One fraction-free skew elimination, the skew analogue of Bareiss: step k
    pivots on (k, k+1), swapping row and column k+1 with the first non-zero
    entry of row k (a sign flip), and updates each trailing entry to
    (p a_ij + a_ik a_(k+1)j - a_i(k+1) a_kj) / prev, with p the pivot and
    prev the one before.  After step t each trailing entry is the Pfaffian
    of rows and columns 0..2t+1 plus i, j, so every division is exact and
    the last pivot is the Pfaffian.  pfaffian(m)**2 == m.det().
    """
    if m.rows != m.cols or m.rows % 2:
        raise NotAlternating("need a square matrix of even size")
    if m != -m.transpose():
        raise NotAlternating("matrix is not antisymmetric")
    n = m.rows
    a = [list(r) for r in m.entries]
    sign, prev = 1, 1
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return 0
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            sign = -sign
        piv, row_k, row_l = a[k][k + 1], a[k], a[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            c, d = row_i[k], row_i[k + 1]
            for j in range(k + 2, n):
                row_i[j] = (piv * row_i[j] + c * row_l[j] - d * row_k[j]) // prev
        prev = piv
    return sign * prev


class NotMember(ValueError):
    """Vector is not in the kernel group of the form."""


def kernel_elements(k: FiniteSymplecticGroup) -> Iterator[tuple[Fraction, ...]]:
    """All group elements in a fixed order (coefficient tuples, little end last)."""
    n = k.ambient.form.rows
    for coeffs in itertools.product(*(range(o) for o in k.orders)):
        yield tuple(
            sum((c * gen[i] for c, gen in zip(coeffs, k.generators)), Fraction(0)) % 1
            for i in range(n))


def weil_pairing(k: FiniteSymplecticGroup, x: Sequence, y: Sequence) -> Fraction:
    """Q/Z-valued pairing x^t·form·y of two kernel members."""
    m = k.ambient.form
    xv, yv = as_vector(x), as_vector(y)
    for v in (xv, yv):
        if len(v) != m.rows:
            raise NotMember("vector length must match the lattice rank")
        if not k.contains(v):
            raise NotMember("vector is not in the kernel of the form")
    return sum(map(operator.mul, xv, m.mul_vec(yv))) % 1
