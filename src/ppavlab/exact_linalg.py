"""Exact dense linear algebra over Z and Q.

Smith and Hermite normal forms and integer kernels, all with
arbitrary-precision arithmetic.  No floats anywhere; a rational matrix is
an integer numerator over one denominator, and every elimination runs in
integers.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import NamedTuple, Sequence


class RankDeficient(ValueError):
    """The input lacks the full rank the operation requires."""


class NotAlternating(ValueError):
    """Expected an antisymmetric matrix (M == -M^t) of even size."""


def _require_entries(name: str, grid, types: tuple[type, ...] = (int,),
                     error: type[Exception] = ValueError, message: str | None = None) -> None:
    """Raise error unless every entry of grid has a type exactly in types:
    a bool, a float or a Fraction is not an int.

    The set of entry types decides; only a failing grid is walked, to name
    `name` and its first bad entry, unless a fixed message is given.
    """
    if set(map(type, chain.from_iterable(grid))).issubset(types):
        return
    if message is None:
        bad = next(x for x in chain.from_iterable(grid) if type(x) not in types)
        kinds = " or ".join(t.__name__ for t in types)
        message = f"{name} entries must be {kinds}, got {bad!r}"
    raise error(message)


_set = object.__setattr__


class _Frozen:
    """Immutable value, compared, hashed and shown by its fields.

    A subclass lists its fields in `_fields`, in constructor order (at least
    two, so that `_key` returns a tuple), and its __init__ runs its checks
    and sets each field once through `_set`.  Values are equal only within
    one class, the hash is hash((field, ...)), so set and dict orders follow
    the field values alone, and the repr is Name(field=value, ...).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: restoring the fields by
        # assignment would raise
        return type(self), self._key(self)


class IntMatrix(_Frozen):
    """Dense matrix over Z, row-major, immutable and hashable.

    The builders from_rows and from_columns refuse any entry that is not an
    int.  The direct constructor IntMatrix(rows, cols, entries) checks only
    the shape: it is the library's path for entries already known to be
    integers.
    """

    __slots__ = _fields = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if list(map(len, entries)) != [cols] * rows:
            raise ValueError("entry grid does not match declared shape")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Matrix with the given rows; cols, if given, must be their length."""
        rows = tuple(tuple(row) for row in rows)
        _require_entries("matrix", rows)
        return cls(len(rows), cols if cols is not None else len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        """Matrix with the given columns; rows, if given, must be their length."""
        columns = [tuple(col) for col in columns]
        _require_entries("matrix", columns)
        if rows is None:
            rows = len(columns[0]) if columns else 0
        # zip would silently truncate to the shortest column
        if list(map(len, columns)) != [rows] * len(columns):
            raise ValueError(f"columns do not all have length {rows}")
        return _from_columns(columns, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be an int >= 0, got {n!r}")
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        for name, size in (("rows", rows), ("cols", cols)):
            if type(size) is not int or size < 0:
                raise ValueError(f"{name} must be an int >= 0, got {size!r}")
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        rows = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise ValueError("ragged block row")
            rows.extend(sum(parts, ()) for parts in zip(*(b.entries for b in brow)))
        return cls(len(rows), sum(b.cols for b in blocks[0]) if blocks else 0, tuple(rows))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        rows = tuple(r[c0:c1] for r in self.entries[r0:r1])
        return IntMatrix(len(rows), c1 - c0, rows)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(map(operator.add, ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(map(operator.neg, r)) for r in self.entries))

    def __mul__(self, other):
        """Matrix product, built row by row from the non-zeros of each left row.

        A row with at most half its entries non-zero is the sum of x times
        row j of other over its entries x = self[i, j] (row j itself when
        x = 1).  A denser row keeps the dot product with each column of
        other, which costs less than a sum over nearly every row of other.
        """
        if isinstance(other, int):
            return self.scaled(other)
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            n, brows = self.cols, other.entries
            zero = (0,) * other.cols
            cols = None
            out = []
            for row in self.entries:
                if 2 * (n - row.count(0)) <= n:
                    acc = None
                    for j in compress(range(n), row):
                        x = row[j]
                        term = brows[j] if x == 1 else map(operator.mul, repeat(x), brows[j])
                        acc = term if acc is None else list(map(operator.add, acc, term))
                    out.append(zero if acc is None else tuple(acc))
                else:
                    if cols is None:
                        cols = other.columns()
                    out.append(tuple(sum(map(operator.mul, row, col)) for col in cols))
            return IntMatrix(self.rows, other.cols, tuple(out))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(map(operator.mul, repeat(k), r)) for r in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(operator.mul, row, v)) for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self.entries == tuple(
            tuple(map(operator.neg, col)) for col in zip(*self.entries))

    def entry_gcd(self) -> int:
        g = 0
        for r in self.entries:
            for x in r:
                g = math.gcd(g, x)
        return g

    def det(self) -> int:
        """Determinant by fraction-free elimination (`_bareiss_step`)."""
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
            _bareiss_step(a, k, range(k + 1, n), prev)
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _from_columns(columns: list, rows: int) -> IntMatrix:
    """The matrix with the given columns, each of length rows, unchecked."""
    return IntMatrix(rows, len(columns), tuple(zip(*columns)) if columns else ((),) * rows)


def _rat_rows(rows, cols: int) -> RatMatrix:
    """The rational matrix with these rows of ints and Fractions, of length cols, unchecked."""
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return RatMatrix(IntMatrix(len(rows), cols, tuple(
        tuple(x.numerator * (den // x.denominator) for x in r) for r in rows)), den)


def _bareiss_step(a: list[list[int]], k: int, rows, prev: int) -> None:
    """Clear column k of each row a[i], i in rows, by the pivot row a[k].

    In place and fraction-free: each entry right of column k becomes
    (p a[i][j] - a[i][k] a[k][j]) / prev, with p = a[k][k] and prev the
    previous step's pivot (1 at the first).  By Sylvester's identity it is,
    up to sign, a minor of order k + 1 of the matrix, so the division is
    exact (Bareiss, Math. Comp. 22, 1968).  Columns up to k are left stale:
    no caller reads them again.
    """
    pivot_row = a[k]
    p = pivot_row[k]
    cols = range(k + 1, len(pivot_row))
    for i in rows:
        row = a[i]
        c = row[k]
        for j in cols:
            row[j] = (p * row[j] - c * pivot_row[j]) // prev


class RatMatrix(_Frozen):
    """Dense matrix over Q: an integer numerator over one denominator.

    Kept in lowest terms (den >= 1, gcd(content(num), den) = 1, den = 1 for
    a zero matrix), so equal matrices compare and hash equal.  Fractions
    appear only at the boundary: entries, scaled, mul_vec and det's value.
    """

    _fields = ("num", "den")
    num: IntMatrix
    den: int

    def __init__(self, num: IntMatrix, den: int = 1):
        if type(den) is not int:
            raise ValueError(f"denominator must be an int, got {den!r}")
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        g = math.gcd(num.entry_gcd(), den)
        if g > 1:
            num = IntMatrix(num.rows, num.cols, tuple(tuple(x // g for x in r) for r in num.entries))
            den //= g
        _set(self, "num", num)
        _set(self, "den", den)

    @property
    def rows(self) -> int:
        return self.num.rows

    @property
    def cols(self) -> int:
        return self.num.cols

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num.entries)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        den = math.lcm(self.den, other.den)
        return RatMatrix(self.num.scaled(den // self.den) + other.num.scaled(den // other.den),
                         den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if isinstance(other, RatMatrix):
            return RatMatrix(self.num * other.num, self.den * other.den)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, k) -> "RatMatrix":
        k = Fraction(k)
        return RatMatrix(self.num.scaled(k.numerator), self.den * k.denominator)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.num.transpose(), self.den)

    def mul_vec(self, v: Sequence) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num.mul_vec(v))

    def common_denominator(self) -> int:
        return self.den

    def is_integral(self) -> bool:
        return self.den == 1

    def to_int(self) -> IntMatrix:
        if self.den != 1:
            raise ValueError("matrix has non-integer entries")
        return self.num

    def det(self) -> Fraction:
        return Fraction(self.num.det(), self.den ** self.rows)

    def inverse(self) -> "RatMatrix":
        """The inverse, computed once per value: a glue's build and its gate share it."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "RatMatrix":
        """One fraction-free Gauss-Jordan pass on [num | I].

        Step k swaps in the first non-zero pivot at or below row k and clears
        column k from every other row (`_bareiss_step`).  The left block
        ends as d I with d = +-det(num), the right block as adj = d num^-1,
        so the inverse is den sign(d) adj / |d|.
        """
        n = self.rows
        if n != self.cols:
            raise RankDeficient("inverse needs a square matrix")
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.num.entries)]
        prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                raise RankDeficient("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            _bareiss_step(a, k, [i for i in range(n) if i != k], prev)
            prev = a[k][k]
        scale = self.den if prev > 0 else -self.den
        return RatMatrix(IntMatrix(n, n, tuple(tuple(scale * x for x in r[n:]) for r in a)),
                         abs(prev))


def hstack(*ms: IntMatrix) -> IntMatrix:
    return IntMatrix.from_blocks([list(ms)])


# -- Smith normal form -----------------------------------------------------


class SNF(NamedTuple):
    d: IntMatrix
    v: IntMatrix


def snf(m: IntMatrix) -> SNF:
    """Smith normal form with its column transform: u * m * v == d.

    v is unimodular (|det| = 1), and so is the row transform u, which is
    not built; d is diagonal with nonnegative entries forming a
    divisibility chain.  The pivot rule (smallest nonzero absolute value,
    ties broken row-major) is fixed, so repeated runs produce identical
    transforms.

    Every operation of a pivot step reads its multiples off the pivot row.
    Left of column k that row is zero, a row operation changes only the
    entries where it is non-zero, and column operation j subtracts q_j
    times column k, with q_j fixed by the pivot row, which no other column
    operation of the step changes.  So each row is updated once per step,
    at those entries only, and a row of a or v whose column-k entry is 0 is
    left alone.  The pivot search stops at the first entry of absolute
    value 1, and a pivot 1 divides every entry without a scan.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    v = [[0] * nc for _ in range(nc)]
    for i in range(nc):
        v[i][i] = 1
    k = 0
    while k < min(nr, nc):
        best = 0
        for i in range(k, nr):
            row = a[i]
            for j in range(k, nc):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best, bi, bj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        a[k], a[bi] = a[bi], a[k]
        rows = a + v  # column operations act on a and v alike
        if bj != k:
            for row in rows:
                row[k], row[bj] = row[bj], row[k]
        row_k = a[k]
        if row_k[k] < 0:
            for j in range(k, nc):
                row_k[j] = -row_k[j]
        piv = row_k[k]
        tail = [(j, row_k[j]) for j in range(k + 1, nc) if row_k[j]]
        for row in a[k + 1:]:
            c = row[k]
            if c:
                q = c // piv
                row[k] = c - q * piv
                for j, y in tail:
                    row[j] -= q * y
        ops = [(j, y // piv) for j, y in tail]
        if ops:
            for row in rows:
                c = row[k]
                if c:
                    for j, q in ops:
                        row[j] -= q * c
        if any(row[k] for row in a[k + 1:]) or any(row_k[k + 1:]):
            continue  # leftovers are smaller than the pivot; rescan
        if piv != 1:
            bad = next((i for i in range(k + 1, nr) for j in range(k + 1, nc)
                        if a[i][j] % piv), None)
            if bad is not None:
                # drag a non-divisible entry into the pivot row
                row_b = a[bad]
                for j in range(k, nc):
                    row_k[j] += row_b[j]
                continue
        k += 1
    return SNF(IntMatrix(nr, nc, tuple(map(tuple, a))), IntMatrix(nc, nc, tuple(map(tuple, v))))


def snf_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of m: the diagonal of its Smith normal form.

    Square 2x2 and 3x3 matrices skip the transforms: with D_k the gcd of the
    k x k minors, d_k = D_k / D_{k-1}, or 0 when D_k = 0 (Newman,
    *Integral Matrices*, Thm II.9).
    """
    n = m.rows
    if n == m.cols and 2 <= n <= 3:
        e = m.entries
        if n == 2:
            (a, b), (c, d) = e
            d1, d2 = math.gcd(a, b, c, d), abs(a * d - b * c)
            return (d1, d2 // d1 if d2 else 0)
        (a, b, c), (d, f, g), (h, i, j) = e
        # the 2x2 minors of the lower two rows give the cofactor expansion
        low12, low02, low01 = f * j - g * i, d * j - g * h, d * i - f * h
        det = abs(a * low12 - b * low02 + c * low01)
        d1 = math.gcd(a, b, c, d, f, g, h, i, j)
        d2 = math.gcd(low12, low02, low01,
                      a * f - b * d, a * g - c * d, b * g - c * f,
                      a * i - b * h, a * j - c * h, b * j - c * i)
        return (d1, d2 // d1 if d2 else 0, det // d2 if det else 0)
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
    return _from_columns(_row_hnf(m.columns(), m.rows), m.rows)


# -- kernels ---------------------------------------------------------------


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the saturated lattice {x in Z^n : m x = 0}.

    One row HNF of the rows [column j of m | e_j], which span the lattice of
    all (m x, x): the echelon rows whose first m.rows entries vanish span
    its meet with 0 + Z^n, and their tails are the kernel's own HNF.
    """
    done = _row_hnf([col + tuple(int(i == j) for i in range(m.cols))
                     for j, col in enumerate(m.columns())], m.rows + m.cols)
    return _from_columns([r[m.rows:] for r in done if not any(r[:m.rows])], m.cols)


def is_positive_definite(m: IntMatrix) -> bool:
    """Sylvester test on an integer symmetric matrix: exact, no floats.

    Fraction-free elimination (`_bareiss_step`) without pivoting: pivot k is
    the k-th leading principal minor, so the first pivot <= 0 decides.
    """
    if not m.is_symmetric():
        return False
    n = m.rows
    a = [list(r) for r in m.entries]
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        _bareiss_step(a, k, range(k + 1, n), prev)
        prev = piv
    return True
