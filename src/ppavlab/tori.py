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
from functools import cache, lru_cache
from typing import NamedTuple, Sequence

from .exact_linalg import IntMatrix, _Frozen, _require_entries, _set


class OrderMismatch(ValueError):
    """Entries or operands do not live over the expected order."""


class BadOrder(ValueError):
    """No unit of the requested multiplicative order exists over the lab's orders."""


class QuadOrder(NamedTuple):
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
    if not isinstance(kind, str) or kind not in _BY_KIND:
        raise OrderMismatch(f"unknown order kind {kind!r}")
    return _BY_KIND[kind]


def _require_order(order) -> None:
    """OrderMismatch unless order is one of the three orders the lab models."""
    if not isinstance(order, QuadOrder) or order not in _BY_KIND.values():
        raise OrderMismatch(f"order must be one of Z, Z[i], Z[w], got {order!r}")


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


class Torus(_Frozen):
    """O^g with its standard Z-basis of rank 2g (rank g when O = Z)."""

    __slots__ = _fields = ("order", "g")
    order: QuadOrder
    g: int

    def __init__(self, order: QuadOrder, g: int):
        _require_order(order)
        if type(g) is not int or g < 1:
            raise ValueError(f"g must be an integer >= 1, got {g!r}")
        _set(self, "order", order)
        _set(self, "g", g)

    @property
    def lattice_rank(self) -> int:
        return 2 * self.g

    @cache
    def complex_structure(self) -> IntMatrix:
        """Matrix J of multiplication by w on the Z-basis, built once per torus.

        Over Z there is no w in the endomorphism ring; Z[i]'s w, which gives
        J = [[0, -I], [I, 0]], is used as the formal complex structure of the
        (1, tau)-basis instead.
        """
        order = self.order if self.order.is_cm else GAUSSIAN
        return rational_rep(OrderMatrix.scalar(order, self.g, W))


class OrderMatrix(_Frozen):
    """Square matrix over a quadratic order; acts on a torus of dimension g.

    Each entry must be an OrderElem of two ints; the builders do not coerce.
    """

    __slots__ = _fields = ("order", "entries")
    order: QuadOrder
    entries: tuple[tuple[OrderElem, ...], ...]

    def __init__(self, order: QuadOrder, entries: tuple[tuple[OrderElem, ...], ...]):
        _require_order(order)
        if type(entries) is not tuple or any(type(r) is not tuple for r in entries):
            # a list would make the frozen value unhashable
            raise ValueError("entries must be a tuple of tuple rows")
        if any(len(r) != len(entries) for r in entries):
            raise ValueError("matrix must be square")
        cells = [x for r in entries for x in r]
        message = "each O-entry must be an OrderElem, a pair of 2 integers"
        if not set(map(type, cells)) <= {OrderElem}:
            raise ValueError(message)
        _require_entries("O-entry", cells, message=message)
        if not order.is_cm and any(x.b for r in entries for x in r):
            raise OrderMismatch("w-part must vanish over Z")
        _set(self, "order", order)
        _set(self, "entries", entries)

    @property
    def g(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, order: QuadOrder, rows: Sequence[Sequence]) -> "OrderMatrix":
        """Matrix whose entry (a, b), a list or tuple of 2 items, is a + b*w;
        any other entry is passed on for the constructor to refuse."""
        return cls(order, tuple(tuple(OrderElem(*x) if isinstance(x, (list, tuple)) and len(x) == 2
                                      else x for x in r) for r in rows))

    @classmethod
    def from_int_rows(cls, order: QuadOrder, rows: Sequence[Sequence[int]]) -> "OrderMatrix":
        return cls(order, tuple(tuple(OrderElem(x, 0) for x in r) for r in rows))

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


# perfbench/child.py reads rational_rep.cache_info before every pass
@lru_cache(maxsize=None)
def rational_rep(m: OrderMatrix) -> IntMatrix:
    """Action of an O-matrix on the Z-basis (e_1..e_g, w e_1..w e_g).

    Writing m = A + B*w, the 2g x 2g block matrix is [[A, vB], [B, A + uB]].
    Over Z the w-part is zero and the action is diag(A, A).
    """
    g, o = m.g, m.order
    a = IntMatrix(g, g, tuple(tuple(x.a for x in r) for r in m.entries))
    b = IntMatrix(g, g, tuple(tuple(x.b for x in r) for r in m.entries))
    if not o.is_cm:
        z = IntMatrix.zeros(g, g)
        return IntMatrix.from_blocks([[a, z], [z, a]])
    return IntMatrix.from_blocks([[a, b.scaled(o.v)], [b, a + b.scaled(o.u)]])


def _order_pairs(g: int, columns) -> list[tuple[int, int]]:
    """The O-entries (a, b) of a `rational_rep` action, row by row, from its
    columns: entry (i, j) = a + b*w has a at row i and b at row g + i of column j."""
    return [(col[i], col[g + i]) for i in range(g) for col in columns[:g]]
