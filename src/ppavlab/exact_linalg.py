"""Exact dense linear algebra over Z and Q.

Smith and Hermite normal forms, Pfaffians, integer kernels and saturations,
all with arbitrary-precision arithmetic.  No floats anywhere; rationals are
``fractions.Fraction``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class RankDeficient(ValueError):
    """The input lacks the full rank the operation requires."""


class NotAlternating(ValueError):
    """Expected an antisymmetric matrix (M == -M^t) of even size."""


def _tuplize(entries) -> tuple:
    return tuple(tuple(row) for row in entries)


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix over Z, row-major, immutable and hashable."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = _tuplize(rows)
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        columns = list(columns)
        if columns:
            rows = len(columns[0])
        elif rows is None:
            rows = 0
        return cls(rows, len(columns), tuple(tuple(c[i] for c in columns) for i in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return cls(n, n, tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        rows = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise ValueError("ragged block row")
            for i in range(height):
                rows.append(tuple(x for b in brow for x in b.entries[i]))
        return cls.from_rows(rows, cols=sum(b.cols for b in blocks[0]) if blocks else 0)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        return IntMatrix.from_rows([r[c0:c1] for r in self.entries[r0:r1]], cols=c1 - c0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.entries))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            bt = other.transpose().entries
            return IntMatrix(self.rows, other.cols,
                             tuple(tuple(sum(map(operator.mul, row, col)) for col in bt)
                                   for row in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self == -self.transpose()

    def entry_gcd(self) -> int:
        g = 0
        for r in self.entries:
            for x in r:
                g = math.gcd(g, x)
        return g

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols,
                         tuple(tuple(Fraction(x) for x in r) for r in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix over Q (entries are Fractions in lowest terms)."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        columns = list(columns)
        if columns:
            rows = len(columns[0])
        elif rows is None:
            rows = 0
        return cls(rows, len(columns),
                   tuple(tuple(Fraction(c[i]) for c in columns) for i in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return IntMatrix.identity(n).to_rat()

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.entries))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(Fraction(other))
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            bt = other.transpose().entries
            return RatMatrix(self.rows, other.cols,
                             tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                                   for row in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(Fraction(other))
        return NotImplemented

    def scaled(self, k) -> "RatMatrix":
        k = Fraction(k)
        return RatMatrix(self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.entries))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def common_denominator(self) -> int:
        return math.lcm(*(x.denominator for r in self.entries for x in r))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.entries for x in r)

    def to_int(self) -> IntMatrix:
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(int(x) for x in r) for r in self.entries))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        a = [list(r) for r in self.entries]
        n = self.rows
        result = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                result = -result
            result *= a[k][k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                if a[i][k]:
                    c = a[i][k] * inv
                    a[i] = [x - c * y for x, y in zip(a[i], a[k])]
        return result

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise RankDeficient("inverse needs a square matrix")
        n = self.rows
        a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self.entries)]
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                raise RankDeficient("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            inv = 1 / a[k][k]
            a[k] = [x * inv for x in a[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    c = a[i][k]
                    a[i] = [x - c * y for x, y in zip(a[i], a[k])]
        return RatMatrix.from_rows([r[n:] for r in a])


def hstack(*ms: IntMatrix) -> IntMatrix:
    return IntMatrix.from_blocks([list(ms)])


def vstack(*ms: IntMatrix) -> IntMatrix:
    return IntMatrix.from_blocks([[m] for m in ms])


# -- Smith normal form -----------------------------------------------------


class SNF(NamedTuple):
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def snf(m: IntMatrix) -> SNF:
    """Smith normal form with transforms: u * m * v == d.

    u and v are unimodular (|det| = 1); d is diagonal with nonnegative
    entries forming a divisibility chain.  The pivot rule (smallest nonzero
    absolute value, ties broken row-major) is fixed, so repeated runs produce
    identical transforms.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q*row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

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
        if best[1] != k:
            swap_rows(k, best[1])
        if best[2] != k:
            swap_cols(k, best[2])
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        piv = a[k][k]
        for i in range(k + 1, nr):
            if a[i][k]:
                add_row(k, i, -(a[i][k] // piv))
        for j in range(k + 1, nc):
            if a[k][j]:
                add_col(k, j, -(a[k][j] // piv))
        if any(a[i][k] for i in range(k + 1, nr)) or any(a[k][j] for j in range(k + 1, nc)):
            continue  # leftovers are smaller than the pivot; rescan
        bad = next(((i, j) for i in range(k + 1, nr) for j in range(k + 1, nc)
                    if a[i][j] % piv), None)
        if bad is not None:
            add_row(bad[0], k, 1)  # drag a non-divisible entry into the pivot row
            continue
        k += 1
    return SNF(IntMatrix.from_rows(u, cols=nr), IntMatrix.from_rows(a, cols=nc),
               IntMatrix.from_rows(v, cols=nc))


def snf_diagonal(m: IntMatrix) -> tuple[int, ...]:
    d = snf(m).d
    return tuple(d[i, i] for i in range(min(m.rows, m.cols)))


# -- Hermite normal form ---------------------------------------------------


def _row_hnf(rows_in: list, ncols: int) -> list[list[int]]:
    """Row-echelon HNF: positive pivots, entries above each pivot in [0, pivot).

    Zero rows are dropped.  The result is the canonical basis of the row
    lattice, so it is independent of the generating set.
    """
    rows = [list(r) for r in rows_in if any(r)]
    done: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            rows = rest
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            nxt = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [x - q * y for x, y in zip(r, p)]
                if rr[col]:
                    nxt.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = nxt
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        done.append(piv)
        rows = rest
    # reduce left to right: later pivot rows have zeros in earlier pivot
    # columns, so each column stays reduced once handled
    for idx in range(len(done)):
        piv = done[idx]
        pcol = next(j for j, x in enumerate(piv) if x)
        for above in done[:idx]:
            q = above[pcol] // piv[pcol]
            if q:
                for j in range(ncols):
                    above[j] -= q * piv[j]
    return done


def hnf_columns(m: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the lattice spanned by the columns of m."""
    basis_rows = _row_hnf([list(c) for c in m.columns()], m.rows)
    return IntMatrix.from_columns([tuple(r) for r in basis_rows], rows=m.rows)


# -- Pfaffian --------------------------------------------------------------


def _pf_expand(a, idx: tuple[int, ...]) -> int:
    if not idx:
        return 1
    i0 = idx[0]
    total = 0
    sign = 1
    for pos in range(1, len(idx)):
        x = a[i0][idx[pos]]
        if x:
            total += sign * x * _pf_expand(a, idx[1:pos] + idx[pos + 1:])
        sign = -sign
    return total


def _pf_eliminate(m: IntMatrix) -> int:
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    sign = 1
    result = Fraction(1)
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return 0
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            sign = -sign
        piv = a[k][k + 1]
        result *= piv
        for i in range(k + 2, n):
            c = a[k][i] / piv
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[k + 1])]
                for row in a:
                    row[i] -= c * row[k + 1]
        for i in range(k + 2, n):
            c = a[k + 1][i] / piv  # clear the second pivot row via row/col k
            if c:
                a[i] = [x + c * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] += c * row[k]
    result *= sign
    if result.denominator != 1:
        raise ArithmeticError("pfaffian elimination left a denominator")
    return int(result)


def pfaffian(m: IntMatrix) -> int:
    """Pfaffian of an even-size antisymmetric integer matrix.

    Recursive expansion along the first row up to size 8; skew-symmetric
    rational elimination above that.  pfaffian(m)**2 == m.det().
    """
    if m.rows != m.cols or m.rows % 2:
        raise NotAlternating("need a square matrix of even size")
    if m != -m.transpose():
        raise NotAlternating("matrix is not antisymmetric")
    if m.rows <= 8:
        return _pf_expand(m.entries, tuple(range(m.rows)))
    return _pf_eliminate(m)


# -- rank, kernels, saturation ---------------------------------------------


def rank_over_field(m: RatMatrix | IntMatrix) -> int:
    # fraction-free: clear each row's denominators, eliminate with integer
    # cross-multiplication, and shrink rows by their gcd to bound growth
    a = []
    for r in m.entries:
        den = math.lcm(*(x.denominator for x in r))
        a.append([int(x * den) for x in r])
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


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the saturated lattice {x in Z^n : m x = 0}."""
    f = snf(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if f.d[i, i])
    if r == m.cols:
        return IntMatrix.zeros(m.cols, 0)
    cols = [f.v.column(j) for j in range(r, m.cols)]
    return hnf_columns(IntMatrix.from_columns(cols, rows=m.cols))


def saturate(l: IntMatrix) -> IntMatrix:
    """Saturation of the column span: (Q-span of columns) intersected with Z^n."""
    if rank_over_field(l) != l.cols:
        raise RankDeficient("columns are linearly dependent")
    ortho = kernel_basis(l.transpose())
    return kernel_basis(ortho.transpose())


def is_positive_definite(m: IntMatrix) -> bool:
    """Sylvester test on an integer symmetric matrix: exact, no floats."""
    if not m.is_symmetric():
        return False
    return all(m.block(0, k, 0, k).det() > 0 for k in range(1, m.rows + 1))
