"""Independent oracles the tests compare the library against; not part of it."""

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from ppavlab.exact_linalg import IntMatrix, NotAlternating, RankDeficient, kernel_basis
from ppavlab.polarizations import FiniteSymplecticGroup, split_form


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


def saturate(l: IntMatrix) -> IntMatrix:
    """Saturation of the column span: (Q-span of columns) intersected with Z^n.

    The kernel of the kernel of l^t has rank rank(l), so a result with fewer
    columns than l means l's columns are dependent.
    """
    sat = kernel_basis(kernel_basis(l.transpose()).transpose())
    if sat.cols != l.cols:
        raise RankDeficient("columns are linearly dependent")
    return sat


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
    xv, yv = tuple(map(Fraction, x)), tuple(map(Fraction, y))
    for v in (xv, yv):
        if len(v) != m.rows:
            raise NotMember("vector length must match the lattice rank")
        if not k.contains(v):
            raise NotMember("vector is not in the kernel of the form")
    return sum(map(operator.mul, xv, m.mul_vec(yv))) % 1


def kernel_generators_reference(form: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Kernel generators built eagerly, as kernel_group once did: column i
    of the Smith transform V over d_i, for each d_i > 1."""
    d, v = snf_reference(form)
    gens = []
    for i, col in enumerate(v.columns()):
        di = d[i, i]
        if di > 1:
            gens.append(tuple(Fraction(x % di, di) for x in col))
    return tuple(gens)


def snf_reference(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(d, v) of the Smith loop as written before its rows were skipped.

    A frozen copy of the straightforward loop: full pivot search, every row
    of a and v touched by every column operation, one column at a time.
    The library's snf must agree with it entry for entry, since the glue's
    kernel generators and digests read v.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    k = 0
    while k < min(nr, nc):
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        if bj != k:
            for row in a + v:
                row[k], row[bj] = row[bj], row[k]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
        row_k = a[k]
        piv = row_k[k]
        for i in range(k + 1, nr):
            if a[i][k]:
                q = a[i][k] // piv
                a[i] = [x - q * y for x, y in zip(a[i], row_k)]
        for j in range(k + 1, nc):
            if row_k[j]:
                q = row_k[j] // piv
                for row in a + v:
                    row[j] -= q * row[k]
        if any(a[i][k] for i in range(k + 1, nr)) or any(row_k[k + 1:]):
            continue
        bad = next((i for i in range(k + 1, nr) for j in range(k + 1, nc)
                    if a[i][j] % piv), None)
        if bad is not None:
            a[k] = [x + y for x, y in zip(row_k, a[bad])]
            continue
        k += 1
    return IntMatrix(nr, nc, tuple(map(tuple, a))), IntMatrix(nc, nc, tuple(map(tuple, v)))


def pseudoreflection_generated_reference(group) -> tuple[bool, int]:
    """pseudoreflection_generated as written before a join's first level was cut.

    Each join grows the subgroup from all of its elements by every step.
    """
    from ppavlab.group_actions import (
        CapExceeded, _column_nonzeros, _grow, _identity_columns, reflection_rank)

    refl = [e for e in group.elements if reflection_rank(e) == 2]
    if not refl:
        return group.order == 1, 0
    sub, steps = {_identity_columns(group.torus.lattice_rank)}, []
    for r in refl:
        if tuple(r.columns()) in sub:
            continue
        steps.append(_column_nonzeros(r))
        for _ in _grow(sub, list(sub), steps):
            if len(sub) > group.order:
                raise CapExceeded(f"group has more than {group.order} elements")
        if len(sub) == group.order:
            break
    return len(sub) == group.order, len(refl)


def ns_fixed_reference(group) -> tuple[int, tuple[IntMatrix, ...]]:
    """ns_fixed as written before its equations were read off the entries.

    One unit form per unknown: split_form of a unit symmetric B over Z, a
    unit alternating form over a CM order.  Each equation t^t b t - c b is
    formed by matrix products and read off its strict upper triangle, and
    each solution is summed back from the unit forms.
    """
    from ppavlab.group_actions import _positivity_normalized

    torus = group.torus
    g, n = torus.g, torus.lattice_rank
    equations = [(rho, 1) for rho in group.generators]
    if torus.order.is_cm:
        basis = [IntMatrix(n, n, tuple(
            tuple(1 if (r, c) == (i, j) else -1 if (r, c) == (j, i) else 0 for c in range(n))
            for r in range(n))) for i in range(n) for j in range(i + 1, n)]
        equations.append((torus.complex_structure(), torus.order.norm_w))
    else:
        basis = [split_form(IntMatrix(g, g, tuple(
            tuple(int((r, c) in {(i, j), (j, i)}) for c in range(g)) for r in range(g))))
            for i in range(g) for j in range(i, g)]
    rows = {}
    for t, c in equations:
        tt = t.transpose()
        images = [tt * b * t - b.scaled(c) for b in basis]
        rows.update(dict.fromkeys(tuple(e[i, k] for e in images)
                                  for i in range(n) for k in range(i + 1, n)))
    sols = kernel_basis(IntMatrix(len(rows), len(basis), tuple(rows)))
    forms = []
    for col in sols.columns():
        acc = IntMatrix.zeros(n, n)
        for b, x in zip(basis, col):
            if x:
                acc = acc + b.scaled(x)
        forms.append(acc)
    if len(forms) == 1:
        forms[0] = _positivity_normalized(torus, forms[0])
    return len(forms), tuple(forms)
