"""Gluing permutation-acted factors to a matching torus along kernel graphs.

The X side is a box product of zero-sum permutation factors; the Y side is
a torus with diagonal form whose nontrivial divisors are the elementary
divisors of the X kernel, carrying the trivial action.  The two kernels
are identified along an antisymplectic isomorphism, the graph generators
are lifted to rational vectors, and the resulting overlattice carries a
principal form together with the lifted action.  Verification re-derives
every invariant from scratch; decomposition recovers the two sides from
the fixed sublattice and its complement.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    _Frozen,
    _rat_rows,
    _require_entries,
    _set,
    hnf_columns,
    hstack,
    is_positive_definite,
    kernel_basis,
)
from .group_actions import _zero_sum_generators, fixed_sublattice, reflection_rank
from .polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    _json_fields,
    _xi_form,
    alternating_type,
    block_sum,
    kernel_group,
    split_form,
)
from .tori import RATIONAL, Torus, rational_rep


class DegeneratePairing(ValueError):
    """The kernel pairing has no partner of full order."""


class TypeMismatch(ValueError):
    """The requested Y dimension cannot carry the required divisors."""


class InvalidGlue(ValueError):
    """A stored glued variety failed re-verification."""


# symplectic_basis walks the X kernel's prod(g + 1)^2 coefficient tuples; at 256
# (eight 1s) standard-build takes 2.5 s at y_dim 32 on 2 cores, ten 1s take 23 s
FACTOR_PRODUCT_LIMIT = 256


# -- symplectic bases of kernel groups ----------------------------------------


class SymplecticBasis(NamedTuple):
    """Hyperbolic pairs (x_j, y_j) with <x_j, y_j> = 1/d_j and d_1 | ... | d_s."""

    pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    orders: tuple[int, ...]


def _coefficient_sums(orders, weights, e: int) -> list[int]:
    """sum(c_i·w_i) mod e for each coefficient tuple c, in itertools.product order."""
    sums = [0]
    for o, w in zip(orders, weights):
        steps = [c * w % e for c in range(o)]
        sums = [(s + t) % e for s in sums for t in steps]
    return sums


def symplectic_basis(k: FiniteSymplecticGroup) -> SymplecticBasis:
    """Greedy hyperbolic reduction of a finite kernel group.

    Repeatedly takes the first element x of maximal order d and the first
    partner y whose pairing with x has order d, normalizes the pairing to
    +1/d, and keeps the members orthogonal to both: <x, y> is a hyperbolic
    plane, so they are, in order, what z -> z - a·x - b·y projects onto.
    Elements are integer numerators v over the exponent e: v has order
    e / gcd(e, v), and <v, w> is (v^t·form·w / e) mod e over e, one dot
    product with the covector v^t·form, taken once per chosen x and y.  The
    first step walks the generators' coefficient tuples in itertools.product
    order: a covector is 0 mod e, so <x, sum c_i·g_i> = sum c_i·<x, g_i>,
    and only the tuples orthogonal to x and y become vectors.
    Deterministic for a fixed generator list.
    """
    m = k.ambient.form
    e = math.lcm(*k.orders)
    mt = m.transpose()
    gens = [[c * e for c in gen] for gen in k.generators]
    for i, row in enumerate(gens):
        if any(c.denominator != 1 for c in row):
            raise ValueError(f"generator {i}, ({', '.join(map(str, k.generators[i]))}),"
                             f" has an entry off the grid (1/{e})Z of its orders")
    gens = [list(map(int, row)) for row in gens]
    coords = list(zip(*gens))
    tuples = functools.partial(itertools.product, *map(range, k.orders))

    def order(v) -> int:
        return e // math.gcd(e, *v)

    def dot(u, w) -> int:
        return sum(map(operator.mul, u, w))

    def pair(cv, w) -> int:
        # cv is the covector v^t·form of the left argument
        return (dot(cv, w) // e) % e

    def vector(coeffs) -> tuple[int, ...]:
        return tuple(dot(coeffs, row) % e for row in coords)

    collected = []

    def hyperbolic(x, cx, y, d) -> tuple[int, ...]:
        # record x and y scaled to <x, y> = 1/d; return y's covector
        if y is None:
            raise DegeneratePairing(f"no partner of order {d} in the pairing")
        t = pow(pair(cx, y) // (e // d), -1, d)
        y = tuple(t * c % e for c in y)
        cy = mt.mul_vec(y)
        collected.append((x, y, cx, cy, d))
        return cy

    # the largest element order is the lcm of the generators' orders
    d = math.lcm(*map(order, gens))
    pool = []
    if d > 1:
        x = next(v for v in map(vector, tuples()) if order(v) == d)
        cx = mt.mul_vec(x)
        px = _coefficient_sums(k.orders, [pair(cx, g) for g in gens], e)
        i = next((i for i, p in enumerate(px) if e // math.gcd(e, p) == d), None)
        y = None if i is None else vector(next(itertools.islice(tuples(), i, None)))
        cy = hyperbolic(x, cx, y, d)
        py = _coefficient_sums(k.orders, [pair(cy, g) for g in gens], e)
        kept = itertools.compress(tuples(), [not a and not b for a, b in zip(px, py)])
        pool = sorted({v for v in map(vector, kept) if any(v)})
    while pool:
        x = max(pool, key=order)
        d = order(x)
        cx = mt.mul_vec(x)
        y = next((c for c in pool if e // math.gcd(e, pair(cx, c)) == d), None)
        cy = hyperbolic(x, cx, y, d)
        pool = [z for z in pool if not pair(cx, z) and not pair(cy, z)]
    collected.reverse()
    orders = tuple(d for *_, d in collected)
    if any(nxt % prev for prev, nxt in zip(orders, orders[1:])):
        raise DegeneratePairing(f"orders {orders} do not form a divisor chain")
    # <x_j/e, y_l/e> = x_j^t·form·y_l / e^2 mod 1, decided on the numerator
    e2 = e * e
    for j, (_, _, cxj, cyj, dj) in enumerate(collected):
        for l, (xl, yl, *_) in enumerate(collected):
            want = e2 // dj if j == l else 0
            if dot(cxj, yl) % e2 != want or dot(cxj, xl) % e2 or dot(cyj, yl) % e2:
                raise DegeneratePairing("reduced pairs are not a symplectic basis")
    pairs = tuple((tuple(Fraction(c, e) for c in x), tuple(Fraction(c, e) for c in y))
                  for x, y, *_ in collected)
    return SymplecticBasis(pairs, orders)


# -- the glued variety ---------------------------------------------------------


def elementary_divisors(ms) -> tuple[int, ...]:
    """Divisor chain of the direct sum of cyclic groups Z/m, 1's dropped.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so replacing each pair (m_i, m_j),
    i < j, by (gcd, lcm) leaves m_i the gcd of m_i, ..., m_n and a chain
    d_1 | ... | d_n: the Smith form of diag(m), without an elimination.
    """
    ms = list(ms)
    if any(type(m) is not int or m < 1 for m in ms):
        raise ValueError(f"moduli must be integers >= 1, got {ms!r}")
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            g = math.gcd(ms[i], ms[j])
            ms[i], ms[j] = g, ms[i] // g * ms[j]
    return tuple(d for d in ms if d > 1)


def _glue_divisors(factors, y_dim: int) -> tuple[int, ...]:
    """The X kernel's divisors; TypeMismatch when Y cannot carry them."""
    divisors = elementary_divisors([g + 1 for g in factors])
    if y_dim < len(divisors):
        raise TypeMismatch(f"y_dim {y_dim} cannot carry {len(divisors)} nontrivial divisors")
    return divisors


class GluedPPAV(_Frozen):
    """Principal form on an overlattice of a product, with the lifted action.

    The overlattice basis is expressed in product coordinates (all plain
    coordinates of X then Y, followed by their second halves); the form and
    the action matrices are written in the overlattice basis.
    """

    _fields = ("factors", "y_dim", "overlattice", "form", "actions", "graph")
    factors: tuple[int, ...]
    y_dim: int
    overlattice: RatMatrix
    form: IntMatrix
    actions: tuple[IntMatrix, ...]
    graph: tuple[tuple[Fraction, ...], ...]

    def __init__(self, factors: tuple[int, ...], y_dim: int, overlattice: RatMatrix,
                 form: IntMatrix, actions: tuple[IntMatrix, ...],
                 graph: tuple[tuple[Fraction, ...], ...]):
        _set(self, "factors", factors)
        _set(self, "y_dim", y_dim)
        _set(self, "overlattice", overlattice)
        _set(self, "form", form)
        _set(self, "actions", actions)
        _set(self, "graph", graph)
        # the shape every check of verify_glued reads; ValueError names the field
        if (type(factors) is not tuple or not factors
                or any(type(g) is not int or g < 1 for g in factors)):
            raise ValueError(f"factors must be a non-empty tuple of integers >= 1,"
                             f" got {factors!r}")
        if type(y_dim) is not int or y_dim < 1:
            raise ValueError(f"y_dim must be an integer >= 1, got {y_dim!r}")
        size = 2 * self.dim
        need = f"factors {factors} and y_dim {y_dim} need {size}"
        integral = [("form", self.form),
                    *((f"actions[{i}]", r) for i, r in enumerate(self.actions))]
        for name, m in [("overlattice", self.overlattice), *integral]:
            if (m.rows, m.cols) != (size, size):
                raise ValueError(f"{name} is {m.rows}x{m.cols}, but {need}x{size}")
        for i, gamma in enumerate(self.graph):
            if len(gamma) != size:
                raise ValueError(f"graph[{i}] has length {len(gamma)}, but {need}")
        # a float entry would pass every check yet break the JSON and the kernels
        for name, m in integral:
            _require_entries(name, m.entries)
        _require_entries("graph", self.graph, (int, Fraction))
        # last: folding the divisors costs len(factors)^2 gcd steps
        _glue_divisors(factors, y_dim)

    @property
    def x_dim(self) -> int:
        return sum(self.factors)

    @property
    def dim(self) -> int:
        return self.x_dim + self.y_dim

    @functools.cached_property
    def _report(self) -> GlueReport:
        """Re-derive and test all invariants from scratch; verify_glued's report.

        With the overlattice p = h/den and p^-1 = q/qden every check is an
        integer matrix product.  There must be one stored action per factor
        generator, each the identity or a pseudoreflection, and the stored
        graph must span the overlattice with Z^2n.
        """
        divisors = elementary_divisors([g + 1 for g in self.factors])
        prod_form = block_sum(_side_forms(self.factors, self.y_dim, divisors))
        n = self.dim
        form = self.form
        h, den = self.overlattice.num, self.overlattice.den
        hdet = h.det()
        # a singular overlattice fails every check that needs p^-1
        j = None
        if hdet:
            p_inv = self.overlattice.inverse()
            q = p_inv.num
            # j = k·p^-1·J·p with k = p_inv.den·den > 0, a multiple of the lifted structure
            k = p_inv.den * den
            j = q * Torus(RATIONAL, n).complex_structure() * h

        checks = []
        checks.append(("form-integral",
                       h.transpose() * prod_form * h == form.scaled(den * den)))
        alternating = form.transpose() == -form
        checks.append(("form-alternating", alternating))
        # an alternating form has det = Pf^2 (0 at odd size), so |Pf| = 1
        # exactly when det = 1
        checks.append(("form-unimodular", alternating and form.det() == 1))

        # is_positive_definite also tests symmetry
        checks.append(("form-positive", j is not None and is_positive_definite(form * j * 2)))
        checks.append(("complex-structure", j is not None
                       and j.transpose() * form * j == form.scaled(k * k)))

        checks.append(("action-preserves-form",
                       all(r.transpose() * form * r == form for r in self.actions)))
        checks.append(("action-commutes-structure",
                       j is not None and all(r * j == j * r for r in self.actions)))

        # r moves each graph vector by a product-lattice vector: with the graph
        # as integer columns over gden, h·r·(q·cols) - k·cols vanishes mod k·gden;
        # q·cols is taken once, so each action costs two narrow products
        graph = _rat_rows(self.graph, 2 * n).transpose()
        gden, cols = graph.den, graph.num
        if j is not None:
            qcols, kcols = q * cols, cols.scaled(k)
        checks.append(("graph-action-trivial", j is not None and all(
            x % (k * gden) == 0
            for r in self.actions
            for row in (h * (r * qcols) - kcols).entries for x in row)))

        identity = IntMatrix.identity(2 * n)
        checks.append(("x-action-reflections", len(self.actions) == self.x_dim
                       and all(reflection_rank(r) in (0, 2) for r in self.actions)))

        index = Fraction(den ** (2 * n), abs(hdet)) if hdet else Fraction(0)
        span = math.lcm(den, gden)
        checks.append(("overlattice-index",
                       index == math.prod(divisors) ** 2
                       and hnf_columns(h.scaled(span // den)) == hnf_columns(
                           hstack(identity.scaled(span), cols.scaled(span // gden)))))

        first = next((name for name, ok in checks if not ok), None)
        return GlueReport(tuple(checks), first, fixed_sublattice(2 * n, self.actions),
                          int(index) if index.denominator == 1 else 0)


def _side_forms(factors, y_dim: int, divisors) -> list[IntMatrix]:
    """The xi_g form of each factor, then Y's: split, diagonal with the divisors."""
    diag = [1] * (y_dim - len(divisors)) + list(divisors)
    y = tuple(tuple(d if i == j else 0 for j in range(y_dim)) for i, d in enumerate(diag))
    return [_xi_form(g) for g in factors] + [split_form(IntMatrix(y_dim, y_dim, y))]


def _factor_generators(factors, y_dim: int) -> list[IntMatrix]:
    """Permutation generators of each factor, acting as the identity elsewhere."""
    eye = [IntMatrix.identity(2 * g) for g in (*factors, y_dim)]
    return [block_sum(eye[:f] + [b] + eye[f + 1:])
            for f, g in enumerate(factors) for b in map(rational_rep, _zero_sum_generators(g))]


def _graph_lift(t, u, gx: int, gy: int) -> tuple[Fraction, ...]:
    # product coordinates: (x plain, y plain, x second half, y second half)
    return tuple(t[:gx]) + tuple(u[:gy]) + tuple(t[gx:]) + tuple(u[gy:])


def build_standard(factor_genera, y_dim: int) -> GluedPPAV:
    """Glue the permutation factors to a matching Y along their kernels; verified."""
    factors = tuple(factor_genera)
    if not factors or any(type(g) is not int or g < 1 for g in factors):
        raise ValueError(f"factor_genera must be a non-empty list of integers >= 1,"
                         f" got {list(factors)!r}")
    if type(y_dim) is not int:
        raise ValueError(f"y_dim must be an integer, got {y_dim!r}")
    size = math.prod(g + 1 for g in factors)
    if size > FACTOR_PRODUCT_LIMIT:
        raise ValueError(f"the product of (factor + 1) is {size}, above the limit"
                         f" FACTOR_PRODUCT_LIMIT = {FACTOR_PRODUCT_LIMIT}")
    divisors = _glue_divisors(factors, y_dim)
    forms = _side_forms(factors, y_dim, divisors)
    gx, gy = sum(factors), y_dim
    n = gx + gy
    x_pol = PolarizedTorus(Torus(RATIONAL, gx), block_sum(forms[:-1]))
    y_pol = PolarizedTorus(Torus(RATIONAL, gy), forms[-1])

    bx = symplectic_basis(kernel_group(x_pol))
    by = symplectic_basis(kernel_group(y_pol))
    if not bx.orders == divisors == by.orders:
        raise TypeMismatch(f"kernel orders {bx.orders}, {by.orders} differ from {divisors}")
    # x_j -> v_j, y_j -> u_j negates the pairing, so the graph is isotropic
    # and the pulled-back form is integral
    images = []
    for (xj, yj), (uj, vj) in zip(bx.pairs, by.pairs):
        images.append((xj, vj))
        images.append((yj, uj))
    graph = tuple(_graph_lift(t, u, gx, gy) for t, u in images)

    # the overlattice is h/den with h the column HNF of den·[I | graph]
    cols = _rat_rows(graph, 2 * n).transpose()
    den = cols.den
    h = hnf_columns(hstack(IntMatrix.identity(2 * n).scaled(den), cols.num))
    p = RatMatrix(h, den)
    form = RatMatrix(h.transpose() * block_sum(forms) * h, den * den).num

    # the overlattice contains Z^2n, so its inverse basis is integral
    q = p.inverse().to_int()
    # a non-integral lift r is stored as c·r, c >= 2, whose c^2·form fails
    # verify_glued's action-preserves-form; the gate decides the form's checks too
    actions = tuple(RatMatrix(q * gen * h, den).num for gen in _factor_generators(factors, y_dim))
    glued = GluedPPAV(factors, y_dim, p, form, actions, graph)
    _verified(glued)
    return glued


# -- verification ---------------------------------------------------------------


class GlueReport(NamedTuple):
    """Named re-checks of every glued invariant, in evaluation order, and the
    canonical basis (columns) of the sublattice the actions fix."""

    checks: tuple[tuple[str, bool], ...]
    first_failure: str | None
    fixed_basis: IntMatrix
    overlattice_index: int

    @property
    def all_passed(self) -> bool:
        return self.first_failure is None

    @property
    def fixed_dim(self) -> int:
        return self.fixed_basis.cols // 2


def verify_glued(a: GluedPPAV) -> GlueReport:
    """The glue's report, computed on first request and kept on the glue.

    A GluedPPAV is a frozen value, so its build's gate, a caller and
    decompose_glued share the one run, and decompose_glued reads its Y side
    off the report's fixed_basis.
    """
    return a._report


def _verified(a: GluedPPAV) -> GlueReport:
    """verify_glued's report, or InvalidGlue naming the first failed check."""
    report = verify_glued(a)
    if report.first_failure is not None:
        raise InvalidGlue(report.first_failure)
    return report


# -- decomposition ---------------------------------------------------------------


class GlueDecomposition(NamedTuple):
    """Fixed sublattice, its complement, their types, and the gluing index."""

    y_basis: IntMatrix
    x_basis: IntMatrix
    y_type: tuple[int, ...]
    x_type: tuple[int, ...]
    quotient_order: int


def decompose_glued(a: GluedPPAV) -> GlueDecomposition:
    """Split a verified glue into its fixed part and polarized complement."""
    y_basis = _verified(a).fixed_basis
    x_basis = kernel_basis(y_basis.transpose() * a.form)
    y_type = alternating_type(y_basis.transpose() * a.form * y_basis)
    x_type = alternating_type(x_basis.transpose() * a.form * x_basis)
    quotient = abs(hstack(x_basis, y_basis).det())
    if quotient != math.prod(x_type) * math.prod(y_type):
        raise InvalidGlue(f"gluing index {quotient} does not match the types")
    return GlueDecomposition(y_basis, x_basis, y_type, x_type, quotient)


# -- serialization ----------------------------------------------------------------


def _int_grid(m: IntMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def _parse_int(x) -> int:
    """A JSON int or the decimal string the writer emits; bools and floats raise."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise ValueError(f"expected an integer or a decimal-integer string, got {x!r}")


def _parse_grid(grid) -> IntMatrix:
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ValueError("a matrix must be a list of rows")
    rows = tuple(tuple(_parse_int(x) for x in row) for row in grid)
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def glued_to_json(a: GluedPPAV) -> str:
    graph = _rat_rows(a.graph, 2 * a.dim)
    return json.dumps({
        "factors": list(a.factors),
        "y_dim": a.y_dim,
        "overlattice_num": _int_grid(a.overlattice.num),
        "overlattice_den": str(a.overlattice.den),
        "form": _int_grid(a.form),
        "actions": [_int_grid(m) for m in a.actions],
        "graph_num": _int_grid(graph.num),
        "graph_den": str(graph.den),
    })


def glued_from_json(text: str) -> GluedPPAV:
    """Load a glued variety and re-verify it; raises InvalidGlue on a failed check."""
    factors, y_dim, num, den, form, actions, graph_num, graph_den = _json_fields(
        text, "factors", "y_dim", "overlattice_num", "overlattice_den", "form", "actions",
        "graph_num", "graph_den")
    den, graph_den = _parse_int(den), _parse_int(graph_den)
    if den < 1 or graph_den < 1:
        raise ValueError("overlattice_den and graph_den must be positive")
    if not isinstance(actions, list):
        raise ValueError("actions must be a list")
    num = _parse_grid(num)
    graph = tuple(tuple(Fraction(c, graph_den) for c in gamma)
                  for gamma in _parse_grid(graph_num).entries)
    glued = GluedPPAV(
        # GluedPPAV checks the sizes and shapes; only a list becomes a tuple
        factors=tuple(factors) if isinstance(factors, list) else factors,
        y_dim=y_dim,
        overlattice=RatMatrix(num, den),
        form=_parse_grid(form),
        actions=tuple(_parse_grid(m) for m in actions),
        graph=graph,
    )
    _verified(glued)
    return glued
