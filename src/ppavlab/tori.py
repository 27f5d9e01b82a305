"""Self-products of an elliptic curve as lattices with endomorphisms.

An order O is Z, Z[i], or Z[w] with w^2 = u*w + v.  A torus of dimension g is
the lattice O^g with Z-basis (e_1..e_g, w*e_1..w*e_g); endomorphism matrices
over O act on that basis through ``rational_rep``.  That integer matrix is
how a group stores an element: its determinant is the norm of the
O-determinant, and its rank over Q is twice the rank over the fraction
field of O.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .exact_linalg import IntMatrix


class OrderMismatch(ValueError):
    """Entries or operands do not live over the expected order."""


class BadOrder(ValueError):
    """No unit of the requested multiplicative order exists over this order."""


@dataclass(frozen=True)
class QuadOrder:
    """Quadratic order presented by w^2 = u*w + v (kind "Z" has no w)."""

    kind: str
    u: int
    v: int

    @property
    def is_cm(self) -> bool:
        return self.kind != "Z"

    @property
    def norm_w(self) -> int:
        return -self.v


RATIONAL = QuadOrder("Z", 0, 0)
GAUSSIAN = QuadOrder("Z[i]", 0, -1)
EISENSTEIN = QuadOrder("Z[w]", -1, -1)

_BY_KIND = {o.kind: o for o in (RATIONAL, GAUSSIAN, EISENSTEIN)}


def order_by_kind(kind: str) -> QuadOrder:
    if kind not in _BY_KIND:
        raise OrderMismatch(f"unknown order kind {kind!r}")
    return _BY_KIND[kind]


class OrderElem(NamedTuple):
    """a + b*w with integer a, b."""

    a: int
    b: int


ZERO = OrderElem(0, 0)
ONE = OrderElem(1, 0)
W = OrderElem(0, 1)


def oadd(x: OrderElem, y: OrderElem) -> OrderElem:
    return OrderElem(x.a + y.a, x.b + y.b)


def osub(x: OrderElem, y: OrderElem) -> OrderElem:
    return OrderElem(x.a - y.a, x.b - y.b)


def oneg(x: OrderElem) -> OrderElem:
    return OrderElem(-x.a, -x.b)


def omul(o: QuadOrder, x: OrderElem, y: OrderElem) -> OrderElem:
    # (a1 + b1 w)(a2 + b2 w) with w^2 = u w + v
    return OrderElem(x.a * y.a + o.v * x.b * y.b,
                     x.a * y.b + x.b * y.a + o.u * x.b * y.b)


def oconj(o: QuadOrder, x: OrderElem) -> OrderElem:
    # the nontrivial order automorphism sends w to u - w
    return OrderElem(x.a + o.u * x.b, -x.b)


def onorm(o: QuadOrder, x: OrderElem) -> int:
    return x.a * x.a + o.u * x.a * x.b - o.v * x.b * x.b


def units_of_order(o: QuadOrder, m: int) -> tuple[OrderElem, ...]:
    """All units of exact multiplicative order m, in a fixed enumeration."""
    if o.kind == "Z":
        pool = [ONE, OrderElem(-1, 0)]
    elif o.kind == "Z[i]":
        pool = [ONE, OrderElem(-1, 0), W, oneg(W)]
    else:
        w2 = omul(o, W, W)
        pool = [ONE, OrderElem(-1, 0), W, oneg(W), w2, oneg(w2)]
    found = []
    for z in pool:
        p, k = z, 1
        while p != ONE:
            p = omul(o, p, z)
            k += 1
        if k == m:
            found.append(z)
    if not found:
        raise BadOrder(f"no unit of order {m} over {o.kind}")
    return tuple(found)


def unit_of_order(o: QuadOrder, m: int) -> OrderElem:
    return units_of_order(o, m)[0]


@dataclass(frozen=True)
class Torus:
    """O^g with its standard Z-basis of rank 2g (rank g when O = Z)."""

    order: QuadOrder
    g: int

    @property
    def lattice_rank(self) -> int:
        return 2 * self.g

    def complex_structure(self) -> IntMatrix:
        """Matrix of multiplication by w on the Z-basis.

        Over Z there is no w in the endomorphism ring; the block matrix with
        (u, v) = (0, -1) is used as the formal complex structure of the
        (1, tau)-basis instead.
        """
        u, v = (self.order.u, self.order.v) if self.order.is_cm else (0, -1)
        g = self.g
        i = IntMatrix.identity(g)
        z = IntMatrix.zeros(g, g)
        return IntMatrix.from_blocks([[z, v * i], [i, u * i]])

    def compatible_form(self, m: IntMatrix) -> bool:
        """Whether an alternating form can arise from a Hermitian one here.

        Over Z that pins the block shape [[0, B], [-B, 0]] with B symmetric;
        over a CM order it is J^t M J == N(w) M for J = complex_structure().
        """
        if m.rows != 2 * self.g or m.cols != 2 * self.g:
            return False
        if self.order.is_cm:
            j = self.complex_structure()
            return j.transpose() * m * j == m.scaled(self.order.norm_w)
        g = self.g
        b = m.block(0, g, g, 2 * g)
        return (m.block(0, g, 0, g) == IntMatrix.zeros(g, g)
                and m.block(g, 2 * g, g, 2 * g) == IntMatrix.zeros(g, g)
                and b.is_symmetric()
                and m.block(g, 2 * g, 0, g) == -b)


@dataclass(frozen=True)
class OrderMatrix:
    """Square matrix over a quadratic order; acts on a torus of dimension g."""

    order: QuadOrder
    entries: tuple[tuple[OrderElem, ...], ...]

    def __post_init__(self):
        if any(len(r) != len(self.entries) for r in self.entries):
            raise ValueError("matrix must be square")
        if not self.order.is_cm and any(x.b for r in self.entries for x in r):
            raise OrderMismatch("w-part must vanish over Z")

    @property
    def g(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, order: QuadOrder, rows: Sequence[Sequence]) -> "OrderMatrix":
        return cls(order, tuple(tuple(OrderElem(int(x[0]), int(x[1])) for x in r) for r in rows))

    @classmethod
    def from_int_rows(cls, order: QuadOrder, rows: Sequence[Sequence[int]]) -> "OrderMatrix":
        return cls(order, tuple(tuple(OrderElem(int(x), 0) for x in r) for r in rows))

    @classmethod
    def identity(cls, order: QuadOrder, g: int) -> "OrderMatrix":
        return cls(order, tuple(tuple(ONE if i == j else ZERO for j in range(g)) for i in range(g)))

    @classmethod
    def scalar(cls, order: QuadOrder, g: int, z: OrderElem) -> "OrderMatrix":
        return cls(order, tuple(tuple(z if i == j else ZERO for j in range(g)) for i in range(g)))

    # __mul__, __sub__ and det have no library caller; perfbench/tracer.py
    # wraps them by name, so they stay

    def __mul__(self, other: "OrderMatrix") -> "OrderMatrix":
        if self.order != other.order or self.g != other.g:
            raise OrderMismatch("operands live over different tori")
        g = self.g
        rows = []
        for i in range(g):
            row = []
            for j in range(g):
                acc = ZERO
                for k in range(g):
                    acc = oadd(acc, omul(self.order, self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            rows.append(tuple(row))
        return OrderMatrix(self.order, tuple(rows))

    def __sub__(self, other: "OrderMatrix") -> "OrderMatrix":
        if self.order != other.order or self.g != other.g:
            raise OrderMismatch("operands live over different tori")
        return OrderMatrix(self.order, tuple(tuple(osub(a, b) for a, b in zip(ra, rb))
                                             for ra, rb in zip(self.entries, other.entries)))

    def det(self) -> OrderElem:
        total = ZERO
        for perm in itertools.permutations(range(self.g)):
            inv = sum(1 for i in range(self.g) for j in range(i + 1, self.g)
                      if perm[i] > perm[j])
            prod = ONE
            for i, j in enumerate(perm):
                prod = omul(self.order, prod, self.entries[i][j])
            total = oadd(total, prod if inv % 2 == 0 else oneg(prod))
        return total


def conj(m: OrderMatrix) -> OrderMatrix:
    """Entrywise image under the nontrivial order automorphism."""
    return OrderMatrix(m.order, tuple(tuple(oconj(m.order, x) for x in r) for r in m.entries))


# perfbench/child.py reads rational_rep.cache_info before every pass
@lru_cache(maxsize=None)
def rational_rep(m: OrderMatrix) -> IntMatrix:
    """Action of an O-matrix on the Z-basis (e_1..e_g, w e_1..w e_g).

    Writing m = A + B*w, the 2g x 2g block matrix is [[A, vB], [B, A + uB]].
    Over Z the w-part is zero and the action is diag(A, A).
    """
    a = IntMatrix.from_rows([[x.a for x in r] for r in m.entries], cols=m.g)
    b = IntMatrix.from_rows([[x.b for x in r] for r in m.entries], cols=m.g)
    o = m.order
    if not o.is_cm:
        z = IntMatrix.zeros(m.g, m.g)
        return IntMatrix.from_blocks([[a, z], [z, a]])
    return IntMatrix.from_blocks([[a, b.scaled(o.v)], [b, a + b.scaled(o.u)]])
