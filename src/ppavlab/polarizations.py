"""Polarizations on tori as integral alternating forms.

A polarization is carried by the lattice form alone: antisymmetric,
nondegenerate, compatible with the (formal) complex structure, and with
positive associated symmetric matrix.  The kernel group of the form,
restriction to stable sublattices, and a bounded scan over such
sublattices all run in exact arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact_linalg import (
    SNF,
    IntMatrix,
    NotAlternating,
    _Frozen,
    _require_entries,
    _set,
    hnf_columns,
    is_positive_definite,
    snf,
    snf_diagonal,
)
from .tori import (
    OrderElem,
    OrderMismatch,
    QuadOrder,
    RATIONAL,
    Torus,
    W,
    omul,
    onorm,
    oconj,
    order_by_kind,
    osub,
)


class Degenerate(ValueError):
    """The form has determinant zero."""


class NotPositive(ValueError):
    """The symmetric matrix attached to the form is not positive definite."""


class IncompatibleForm(ValueError):
    """The form does not descend from a Hermitian form on this torus."""


class NotStable(ValueError):
    """Sublattice is not stable under the complex structure."""


class NotSaturated(ValueError):
    """Sublattice basis spans a non-saturated lattice."""


class BudgetExceeded(RuntimeError):
    """Enumeration request is outside the supported budget."""


class PrincipalRestrictionFound(AssertionError):
    """A scanned sublattice restriction came out principal."""


class PolarizedTorus(_Frozen):
    """Torus with a positive compatible alternating form on its lattice."""

    _fields = ("torus", "form")
    torus: Torus
    form: IntMatrix

    def __init__(self, torus: Torus, form: IntMatrix):
        _set(self, "torus", torus)
        _set(self, "form", form)
        n = self.torus.lattice_rank
        if self.form.rows != n or self.form.cols != n:
            raise IncompatibleForm(f"form must be {n}x{n}")
        _require_entries("form", self.form.entries, error=IncompatibleForm,
                         message="form must be a matrix of integers")
        if not self.form.is_antisymmetric():
            raise NotAlternating("polarization form must be antisymmetric")
        if not _compatible(self.torus, self.form):
            raise IncompatibleForm("form is not compatible with the complex structure")
        if self.torus.order.is_cm:
            # 2MJ - uM = M(2J - u) is singular whenever M is, so a positive
            # one proves M nondegenerate; det only tells the two failures apart
            symmetric, m = associated_symmetric(self.torus, self.form), self.form
        else:
            # the form is split_form(B), so 2MJ = diag(2B, 2B) is positive
            # exactly when B is, and det M = det(B)^2 is 0 exactly when det B is
            g = self.torus.g
            symmetric = m = self.form.block(0, g, g, 2 * g)
        if not is_positive_definite(symmetric):
            if m.det() == 0:
                raise Degenerate("polarization form must be nondegenerate")
            raise NotPositive("associated symmetric matrix must be positive definite")

    @property
    def g(self) -> int:
        return self.torus.g

    @functools.cached_property
    def _smith(self) -> SNF:
        # the one reduction of the form; its type and kernel group read it
        return snf(self.form)


# -- alternating forms --------------------------------------------------------


def split_form(b: IntMatrix) -> IntMatrix:
    """The alternating form [[0, B], [-B, 0]] of a square block B."""
    z = IntMatrix.zeros(b.rows, b.cols)
    return IntMatrix.from_blocks([[z, b], [-b, z]])


def _compatible(torus: Torus, form: IntMatrix) -> bool:
    """Whether a 2g x 2g alternating form comes from a Hermitian one.

    Over Z: split_form(B), B symmetric.  Over a CM order: J^t M J == N(w) M.
    """
    if torus.order.is_cm:
        j = torus.complex_structure()
        return j.transpose() * form * j == form.scaled(torus.order.norm_w)
    b = form.block(0, torus.g, torus.g, 2 * torus.g)
    return b.is_symmetric() and form == split_form(b)


def associated_symmetric(torus: Torus, form: IntMatrix) -> IntMatrix:
    """2*M*J - u*M: twice the symmetric matrix of the Hermitian form.

    Doubled to stay integral for half-integer traces; the form is positive
    exactly when this matrix is positive definite.  u is 0 over Z and Z[i].
    """
    doubled = form * torus.complex_structure() * 2
    u = torus.order.u if torus.order.is_cm else 0
    return doubled - form.scaled(u) if u else doubled


def _paired_type(diag: tuple[int, ...]) -> tuple[int, ...]:
    """One divisor of each pair of an alternating form's Smith diagonal.

    The Smith diagonal of a nondegenerate alternating form is doubled,
    (d_1, d_1, d_2, d_2, ...); a zero or an unpaired divisor raises.
    """
    if 0 in diag:
        raise Degenerate("degenerate form has no type")
    if diag[0::2] != diag[1::2]:
        raise NotAlternating("divisors of an alternating form must pair up")
    return diag[0::2]


def alternating_type(form: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors (d_1 | ... | d_g) of a nondegenerate alternating form."""
    return _paired_type(snf_diagonal(form))


def theta_g(g: int, order: QuadOrder = RATIONAL) -> PolarizedTorus:
    """Product of g principally polarized elliptic factors."""
    return PolarizedTorus(Torus(order, g), split_form(IntMatrix.identity(g)))


def _xi_form(g: int) -> IntMatrix:
    """split_form(I + J), J all ones: the form of xi_g, without a torus."""
    ones = IntMatrix(g, g, ((1,) * g,) * g)
    return split_form(IntMatrix.identity(g) + ones)


def xi_g(g: int, order: QuadOrder = RATIONAL) -> PolarizedTorus:
    """The sum-of-axes-plus-antidiagonal polarization, block I + all-ones."""
    return PolarizedTorus(Torus(order, g), _xi_form(g))


def polarization_type(p: PolarizedTorus) -> tuple[int, ...]:
    """Elementary divisors (d_1 | ... | d_g) of the form, read off its cached Smith form."""
    d = p._smith.d
    return _paired_type(tuple(d[i, i] for i in range(d.rows)))


def is_principal(p: PolarizedTorus) -> bool:
    return all(d == 1 for d in polarization_type(p))


# -- kernel group ------------------------------------------------------------


class FiniteSymplecticGroup(NamedTuple):
    """Kernel of the form: rational vectors mod Z^{2g} with a Q/Z pairing."""

    ambient: PolarizedTorus
    generators: tuple[tuple[Fraction, ...], ...]
    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def contains(self, x: Sequence) -> bool:
        """Whether the rational vector x, of int or Fraction entries, is in the kernel."""
        _require_entries("vector", (x,), (int, Fraction))
        return all(v.denominator == 1 for v in self.ambient.form.mul_vec(x))


def kernel_group(p: PolarizedTorus) -> FiniteSymplecticGroup:
    """Generators and orders of (form^{-1} Z^{2g}) / Z^{2g}."""
    d, v = p._smith
    gens, orders = [], []
    for i, col in enumerate(v.columns()):
        di = d[i, i]
        if di > 1:
            # column i of V over d_i: a kernel element of exact order d_i
            gens.append(tuple(Fraction(x % di, di) for x in col))
            orders.append(di)
    return FiniteSymplecticGroup(p, tuple(gens), tuple(orders))


# -- products and rescalings -------------------------------------------------


def scale(p: PolarizedTorus, m: int) -> PolarizedTorus:
    if type(m) is not int or m < 1:
        raise ValueError(f"scale factor must be an integer >= 1, got {m!r}")
    return PolarizedTorus(p.torus, p.form.scaled(m))


def block_sum(ms: Sequence[IntMatrix]) -> IntMatrix:
    """Direct sum of 2g_i x 2g_i lattice matrices in the product basis order.

    The product basis lists every factor's plain coordinates before every
    factor's second halves (the w-multiples), keeping the block convention.
    """
    # product index -> (factor, index within the factor)
    lookup = [(f, half * (m.rows // 2) + i)
              for half in (0, 1) for f, m in enumerate(ms) for i in range(m.rows // 2)]
    n = len(lookup)
    return IntMatrix(n, n, tuple(tuple(ms[f][i, j] if f == h else 0 for h, j in lookup)
                                 for f, i in lookup))


def box_product(*factors: PolarizedTorus) -> PolarizedTorus:
    """External product: direct sum of the forms on the product torus."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    order = factors[0].torus.order
    if any(p.torus.order != order for p in factors):
        raise OrderMismatch("factors must share the order kind")
    return PolarizedTorus(Torus(order, sum(p.g for p in factors)),
                          block_sum([p.form for p in factors]))


def self_intersection(p: PolarizedTorus) -> int:
    """Top self-intersection number g! * d_1 ... d_g, equal to g! * |Pf(form)|.

    Riemann-Roch; the type is read off the torus's cached Smith form.
    """
    return math.factorial(p.g) * math.prod(polarization_type(p))


# -- restriction to stable sublattices ---------------------------------------


def _odivmod(o: QuadOrder, a: OrderElem, b: OrderElem) -> tuple[OrderElem, OrderElem]:
    # nearest-coordinate division; remainder norm < divisor norm for these orders
    n = onorm(o, b)
    num = omul(o, a, oconj(o, b))
    q = OrderElem((2 * num.a + n) // (2 * n), (2 * num.b + n) // (2 * n))
    return q, osub(a, omul(o, q, b))


def _o_column_echelon(o: QuadOrder, cols: list[list[OrderElem]]) -> list[list[OrderElem]]:
    """Echelon basis of the module generated by the columns, by Euclidean gcd."""
    work = [list(c) for c in cols if any(x != (0, 0) for x in c)]
    g = len(cols[0]) if cols else 0
    basis: list[list[OrderElem]] = []
    start = 0
    for row in range(g):
        while True:
            live = [i for i in range(start, len(work)) if work[i][row] != (0, 0)]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda i: (onorm(o, work[i][row]), i))
            for i in live:
                if i != piv:
                    q, _ = _odivmod(o, work[i][row], work[piv][row])
                    work[i] = [osub(x, omul(o, q, y)) for x, y in zip(work[i], work[piv])]
            work = [c for c in work if any(x != (0, 0) for x in c)]
        live = [i for i in range(start, len(work)) if work[i][row] != (0, 0)]
        if live:
            work[start], work[live[0]] = work[live[0]], work[start]
            basis.append(work[start])
            start += 1
    return basis


def _aligned_basis(torus: Torus, s: IntMatrix) -> IntMatrix:
    """Basis of span(s) shaped (f_1..f_h, w f_1..w f_h); NotStable if impossible.

    s is the canonical (column HNF) basis of the span.
    """
    g, k = torus.g, s.cols
    if torus.order.is_cm:
        cols = [[OrderElem(s[j, c], s[g + j, c]) for j in range(g)] for c in range(k)]
        obasis = _o_column_echelon(torus.order, cols)
        # each O-vector f, then each w f, in the plain coordinates (a parts, b parts)
        wbasis = [[omul(torus.order, W, x) for x in vec] for vec in obasis]
        columns = [[x.a for x in vec] + [x.b for x in vec] for vec in obasis + wbasis]
        aligned = IntMatrix(2 * g, len(columns), tuple(zip(*columns)))
        if hnf_columns(aligned) != s:
            raise NotStable("sublattice is not stable under the complex structure")
        return aligned
    # over Z a stable span is a double copy L + L, whose canonical basis is
    # diag(H, H) with H the canonical basis of L
    h = s.block(0, g, 0, k // 2)
    z = IntMatrix.zeros(g, h.cols)
    if s != IntMatrix.from_blocks([[h, z], [z, h]]):
        raise NotStable("sublattice does not split as a double copy")
    return s


def _check_saturated(s: IntMatrix) -> IntMatrix:
    """Canonical basis of span(s), for a non-empty, full-rank, saturated s.

    By the invariant factors d_1 | ... | d_k: s has rank s.cols when k =
    s.cols and d_k != 0, and Z^n / span(s) is torsion-free when d_k is 1.
    """
    d = snf_diagonal(s)
    if s.cols == 0 or len(d) < s.cols or d[-1] == 0:
        raise NotSaturated("sublattice basis must be non-empty, of full column rank")
    if d[-1] != 1:
        raise NotSaturated("sublattice is not saturated in the ambient lattice")
    return hnf_columns(s)


class Restriction(NamedTuple):
    polarized: PolarizedTorus
    embedding: IntMatrix  # aligned basis columns inside the ambient lattice


def restrict_with_basis(p: PolarizedTorus, s: IntMatrix) -> Restriction:
    if s.rows != p.torus.lattice_rank:
        raise IncompatibleForm("sublattice rows must match the lattice rank")
    canon = _check_saturated(s)
    b = _aligned_basis(p.torus, canon)
    sub = PolarizedTorus(Torus(p.torus.order, b.cols // 2),
                         b.transpose() * p.form * b)
    return Restriction(sub, b)


def restrict(p: PolarizedTorus, s: IntMatrix) -> PolarizedTorus:
    """Polarization restricted to a saturated stable sublattice."""
    return restrict_with_basis(p, s).polarized


# -- sublattice scan ---------------------------------------------------------


class SubtorusRestriction(NamedTuple):
    basis: IntMatrix  # saturated sublattice of Z^n, in the plain coordinates
    type: tuple[int, ...]


def _primitive_vectors(n: int, height: int) -> list[tuple[int, ...]]:
    """Primitive vectors of height <= height with a positive leading entry."""
    return [v for v in itertools.product(range(-height, height + 1), repeat=n)
            if math.gcd(*v) == 1 and next(x for x in v if x) > 0]


_SCAN_SUBSET_BUDGET = 200_000


def _hyperplane_basis(c: Sequence[int]) -> IntMatrix:
    """HNF basis (as columns) of the kernel {x in Z^n : c.x = 0} of a primitive row c.

    With m the last index where c_m != 0 and t_i = gcd(c_i, ..., c_{n-1}),
    the kernel vectors that vanish before index i take at i exactly the
    multiples of d_i = t_{i+1} / t_i when i < m, only 0 at m, and every
    integer past m (Newman, *Integral Matrices*, Ch. II).  So column i < m
    has pivot d_i, each entry x_j with i < j < m is the one residue in
    [0, d_j) that keeps the rest of c.x = 0 solvable, and x_m closes it;
    the columns from m on are unit vectors.  The entries are written
    straight into the rows of the n x (n - 1) matrix.

    For n = 3 and c_2 != 0 this is a closed form: with t = gcd(c_1, c_2),
    d = |c_2| / t and x = -c_0 (c_1 / t)^-1 mod d (0 when d = 1), the
    columns are (t, x, (-c_0 t - c_1 x) / c_2) and (0, d, -c_1 d / c_2).
    """
    if len(c) == 3 and c[2]:
        c0, c1, c2 = c
        t = math.gcd(c1, c2)
        d = abs(c2) // t
        x = -c0 * pow(c1 // t, -1, d) % d if d > 1 else 0
        return IntMatrix(3, 2, ((t, 0), (x, d), ((-c0 * t - c1 * x) // c2, -c1 * d // c2)))
    n = len(c)
    m = n - 1
    while not c[m]:
        m -= 1
    t = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        t[i] = math.gcd(c[i], t[i + 1])
    d = [t[i + 1] // t[i] for i in range(m)]
    rows = [[0] * (n - 1) for _ in range(n)]
    for i in range(m):
        rows[i][i] = d[i]
        rem = -c[i] * d[i]  # what c_{i+1} x_{i+1} + ... + c_m x_m must make
        for j in range(i + 1, m):
            if d[j] > 1:
                # rem is a multiple of t_j; leave a multiple of t_{j+1}
                x = rem // t[j] * pow(c[j] // t[j], -1, d[j]) % d[j]
                rows[j][i] = x
                rem -= c[j] * x
        rows[m][i] = rem // c[m]
    for i in range(m, n - 1):
        rows[i + 1][i] = 1
    return IntMatrix(n, n - 1, tuple(map(tuple, rows)))


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), for a, b >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _plane_basis(n: int, key: Sequence[int]) -> IntMatrix:
    """HNF basis (as columns) of the saturated rank-2 lattice with Plücker key `key`.

    key holds the 2 x 2 minors p_ij (i < j, lexicographic), primitive, with
    its first non-zero minor positive, as _distinct_spans normalizes it.
    For the HNF rows r1, r2 (pivots c1 < c2) of the lattice, p = +-(r1 ^ r2)
    and that first minor is p_{c1 c2} = +-r1[c1] r2[c2], a product of two
    positive pivots, so p = r1 ^ r2.  Row c1 of p is then r1[c1] r2: r2 and
    r1[c1] are its primitive part and gcd.  Row c2 of p gives
    D r1[j] = y r2[j] - p_{c2 j} with D = r2[c2] and y = r1[c2] in [0, D),
    and y is fixed mod D because r2 is primitive.
    """
    p = [[0] * n for _ in range(n)]
    for (i, j), x in zip(itertools.combinations(range(n), 2), key):
        p[i][j], p[j][i] = x, -x
    q = next(row for row in p if any(row))
    g = math.gcd(*q)
    r2 = [x // g for x in q]
    c2 = next(j for j in range(n) if r2[j])
    big_d = r2[c2]
    rhs = p[c2]  # y r2[j] == rhs[j] (mod D) for every j
    # fold D and r2's entries into their gcd, 1, carrying the right-hand
    # sides along: y * h == acc (mod D) throughout
    h, acc = big_d, 0
    for j in range(c2 + 1, n):
        if h == 1:
            break
        h, u, v = _bezout(h, r2[j] % big_d)
        acc = u * acc + v * rhs[j]
    y = acc % big_d
    r1 = [(y * b - a) // big_d for a, b in zip(rhs, r2)]
    return IntMatrix(n, 2, tuple(zip(r1, r2)))


def _distinct_spans(n: int, prims: list[tuple[int, ...]]
                    ) -> tuple[list[IntMatrix], list[IntMatrix], list[tuple[tuple[int, ...], IntMatrix]]]:
    """Saturated basis of each distinct Q-span of fewer than n of the vectors.

    Two k-subsets span the same Q-space exactly when their k x k minors (the
    Plücker vector) agree up to a scalar.  The primitive Plücker vector,
    with its first non-zero minor positive, is the span's key, and fixes
    the saturated span, so each span's canonical basis is read off it once.
    prims are distinct primitive vectors with positive leading entries, so
    no two span the same line: every vector is its own rank-1 span and
    every pair has a non-zero key.  The budget caps n at 4, so each rank
    has its own loop.

    Returns (lines, planes, hyperplanes): the rank-1 bases in the order of
    prims, the rank-2 bases of Z^4, and for each rank-(n - 1) span with
    n >= 3 its primitive normal next to its basis.
    """
    # a primitive vector with leading entry positive is its own HNF
    lines = [IntMatrix(n, 1, tuple((x,) for x in v)) for v in prims]
    planes = []
    hyperplanes = []
    gcd = math.gcd
    seen = set()
    if n == 3:
        for i, (a0, a1, a2) in enumerate(prims):
            for b0, b1, b2 in prims[i + 1:]:
                p01, p02, p12 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a1 * b2 - a2 * b1
                g = gcd(p01, p02, p12)
                if (p01 or p02 or p12) < 0:
                    g = -g
                # the normal, the cross product a x b, is the key reordered
                # with one sign flipped, so it keys the set; the set and the
                # list share the one tuple
                normal = (p12 // g, -p02 // g, p01 // g)
                if normal not in seen:
                    seen.add(normal)
                    hyperplanes.append((normal, _hyperplane_basis(normal)))
    elif n == 4:
        plane_keys = set()
        for i, (a0, a1, a2, a3) in enumerate(prims):
            for j in range(i + 1, len(prims)):
                b0, b1, b2, b3 = prims[j]
                p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
                p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
                g = gcd(p01, p02, p03, p12, p13, p23)
                if (p01 or p02 or p03 or p12 or p13 or p23) < 0:
                    g = -g
                key = (p01 // g, p02 // g, p03 // g, p12 // g, p13 // g, p23 // g)
                if key not in plane_keys:
                    plane_keys.add(key)
                    planes.append(_plane_basis(4, key))
                # the 3 x 3 minors of (a, b, c) by Laplace expansion along c:
                # M_ijl = c_i p_jl - c_j p_il + c_l p_ij
                for c0, c1, c2, c3 in prims[j + 1:]:
                    m012 = c0 * p12 - c1 * p02 + c2 * p01
                    m013 = c0 * p13 - c1 * p03 + c3 * p01
                    m023 = c0 * p23 - c2 * p03 + c3 * p02
                    m123 = c1 * p23 - c2 * p13 + c3 * p12
                    h = gcd(m012, m013, m023, m123)
                    if h == 0:
                        continue  # c lies in the span of a and b
                    if (m012 or m013 or m023 or m123) < 0:
                        h = -h
                    # signed maximal minors: the normal of the hyperplane
                    normal = (m123 // h, -m023 // h, m013 // h, -m012 // h)
                    if normal not in seen:
                        seen.add(normal)
                        hyperplanes.append((normal, _hyperplane_basis(normal)))
    return lines, planes, hyperplanes


def _block_type(s: IntMatrix) -> tuple[int, ...]:
    """Type of xi_g(n) restricted to diag(S, S), for a basis S of a sublattice of Z^n.

    xi_g(n) is split_form(I + J), J all ones; restricted to diag(S, S) it
    is split_form(S^t S + u u^t) with u = S^t 1, whose type is the Smith
    diagonal of that block.
    """
    cols = s.columns()
    u = [sum(c) for c in cols]
    block = tuple(tuple(sum(map(operator.mul, x, y)) + ux * uy for y, uy in zip(cols, u))
                  for x, ux in zip(cols, u))
    return snf_diagonal(IntMatrix(s.cols, s.cols, block))


def scan_subtorus_types(n: int, height: int) -> tuple[SubtorusRestriction, ...]:
    """Restrict xi_g(n) to every proper stable sublattice of bounded height.

    Sublattices are the saturations of spans of primitive vectors with
    entries in [-height, height], tensored with the order; each distinct
    span's saturated basis is read off its Plücker vector once.  Results
    come sorted by rank, then basis.  Raises ValueError unless n and height
    are ints >= 1, BudgetExceeded beyond n <= 4, height <= 5 or 200,000
    subsets, and PrincipalRestrictionFound if any restricted type is all
    ones.

    A rank-1 type is the 1 x 1 block |v|^2 + (sum v)^2 of its vector v.  A
    hyperplane's type is computed once per orbit of its primitive normal
    nu under coordinate permutations and sign: I + J is invariant under
    every permutation matrix P, so the block of (P nu)^perp = P(nu^perp)
    is congruent to that of nu^perp, and -nu has the same hyperplane.
    The orbit key is min(sorted(nu), sorted(-nu)).
    """
    if type(n) is not int or type(height) is not int or n < 1 or height < 1:
        raise ValueError(f"n and height must be >= 1 (ints, not bools),"
                         f" got n={n!r}, height={height!r}")
    if n > 4 or height > 5:
        raise BudgetExceeded("supported budget is n <= 4, height <= 5")
    if n < 2:
        return ()
    prims = _primitive_vectors(n, height)
    subsets = sum(math.comb(len(prims), k) for k in range(1, n))
    if subsets > _SCAN_SUBSET_BUDGET:
        raise BudgetExceeded(f"scan of n={n}, height={height} needs {subsets} subsets;"
                             f" the budget is {_SCAN_SUBSET_BUDGET}")
    lines, planes, hyperplanes = _distinct_spans(n, prims)
    # prims, and so the lines, are already in lexicographic order
    results = [SubtorusRestriction(s, (sum(x * x for x in v) + sum(v) ** 2,))
               for v, s in zip(prims, lines)]
    results += sorted((SubtorusRestriction(s, _block_type(s)) for s in planes),
                      key=lambda r: r.basis.entries)
    orbit_types = {}
    # each (normal, basis) pair is replaced by its restriction in place, so
    # the pairs are freed as the loop goes, not held until the sort
    for i, (normal, s) in enumerate(hyperplanes):
        up = sorted(normal)
        orbit = tuple(min(up, [-x for x in reversed(up)]))
        t = orbit_types.get(orbit)
        if t is None:
            t = orbit_types[orbit] = _block_type(s)
        hyperplanes[i] = SubtorusRestriction(s, t)
    hyperplanes.sort(key=lambda r: r.basis.entries)
    results += hyperplanes
    for r in results:
        # a Smith diagonal is a divisor chain: all ones exactly when its last entry is
        if r.type[-1] == 1:
            raise PrincipalRestrictionFound(
                f"sublattice {r.basis.entries} restricts to a principal type")
    return tuple(results)


# -- serialization -----------------------------------------------------------


def _json_fields(text: str, *names: str) -> list:
    """The named fields of a JSON object; ValueError names what is missing."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return [data[name] for name in names]


def polarization_to_json(p: PolarizedTorus) -> str:
    return json.dumps({
        "order": p.torus.order.kind,
        "g": p.torus.g,
        "form": [list(row) for row in p.form.entries],
    })


def polarization_from_json(text: str) -> PolarizedTorus:
    kind, g, rows = _json_fields(text, "order", "g", "form")
    torus = Torus(order_by_kind(kind), g)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("form must be a list of rows")
    form = IntMatrix(len(rows), len(rows[0]) if rows else 0, tuple(map(tuple, rows)))
    return PolarizedTorus(torus, form)
