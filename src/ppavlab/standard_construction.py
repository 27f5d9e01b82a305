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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    hnf_columns,
    hstack,
    is_positive_definite,
    kernel_basis,
    pfaffian,
    rank_over_field,
    snf_diagonal,
    vstack,
)
from .group_actions import example_b
from .polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    alternating_type,
    box_product,
    form_pairing,
    kernel_group,
    split_form,
    xi_g,
)
from .tori import RATIONAL, Torus


class DegeneratePairing(ValueError):
    """The kernel pairing has no partner of full order."""


class TypeMismatch(ValueError):
    """The requested Y dimension cannot carry the required divisors."""


class IntegralityFailure(ValueError):
    """A pulled-back object landed outside the integral lattice."""


class InvalidGlue(ValueError):
    """A stored glued variety failed re-verification."""


# -- symplectic bases of kernel groups ----------------------------------------


class SymplecticBasis(NamedTuple):
    """Hyperbolic pairs (x_j, y_j) with <x_j, y_j> = 1/d_j and d_1 | ... | d_s."""

    pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    orders: tuple[int, ...]


def symplectic_basis(k: FiniteSymplecticGroup) -> SymplecticBasis:
    """Greedy hyperbolic reduction of a finite kernel group.

    Repeatedly takes an element of maximal order, finds a partner whose
    pairing has that exact order, normalizes the pairing to +1/d, and
    recurses on the orthogonal complement.  Elements are integer numerators
    v over the exponent e: v has order e / gcd(e, v), and <v, w> is
    (v^t·form·w / e) mod e over e.  Deterministic for a fixed generator list.
    """
    m = k.ambient.form
    e = math.lcm(*k.orders)
    gens = IntMatrix.from_columns([[int(c * e) for c in gen] for gen in k.generators],
                                  rows=m.rows)

    def order(v) -> int:
        return e // math.gcd(e, *v)

    def pair(v, w) -> int:
        return (sum(a * b for a, b in zip(v, m.mul_vec(w))) // e) % e

    # every element in the order of FiniteSymplecticGroup.elements()
    pool = [v for v in (tuple(x % e for x in gens.mul_vec(c))
                        for c in itertools.product(*map(range, k.orders))) if any(v)]
    collected = []
    while pool:
        x = max(pool, key=order)
        d = order(x)
        step = e // d
        y = next((c for c in pool if e // math.gcd(e, pair(x, c)) == d), None)
        if y is None:
            raise DegeneratePairing(f"no partner of order {d} in the pairing")
        t = pow(pair(x, y) // step, -1, d)
        y = tuple(t * c % e for c in y)
        collected.append(((x, y), d))
        fresh = set()
        for z in pool:
            a_co = -(pair(y, z) // step) % d
            b_co = pair(x, z) // step % d
            w = tuple((zc - a_co * xc - b_co * yc) % e for zc, xc, yc in zip(z, x, y))
            if any(w):
                fresh.add(w)
        pool = sorted(fresh)
    collected.reverse()
    pairs = tuple(tuple(tuple(Fraction(c, e) for c in v) for v in pq)
                  for pq, _ in collected)
    orders = tuple(d for _, d in collected)
    if any(nxt % prev for prev, nxt in zip(orders, orders[1:])):
        raise DegeneratePairing(f"orders {orders} do not form a divisor chain")
    for j, (xj, yj) in enumerate(pairs):
        for l, (xl, yl) in enumerate(pairs):
            want = Fraction(1, orders[j]) if j == l else Fraction(0)
            if (form_pairing(m, xj, yl) != want or form_pairing(m, xj, xl)
                    or form_pairing(m, yj, yl)):
                raise DegeneratePairing("reduced pairs are not a symplectic basis")
    return SymplecticBasis(pairs, orders)


# -- the glued variety ---------------------------------------------------------


def elementary_divisors(ms) -> tuple[int, ...]:
    """Divisor chain of the direct sum of cyclic groups Z/m, 1's dropped."""
    ms = list(ms)
    for m in ms:
        if m < 1:
            raise ValueError("moduli must be >= 1")
    if not ms:
        return ()
    return tuple(d for d in snf_diagonal(IntMatrix.diagonal(ms)) if d > 1)


@dataclass(frozen=True)
class GluedPPAV:
    """Principal form on an overlattice of a product, with the lifted action.

    The overlattice basis is expressed in product coordinates (all plain
    coordinates of X then Y, followed by their second halves); the form and
    the action matrices are written in the overlattice basis.
    """

    factors: tuple[int, ...]
    y_dim: int
    overlattice: RatMatrix
    form: IntMatrix
    actions: tuple[IntMatrix, ...]
    graph: tuple[tuple[Fraction, ...], ...]

    @property
    def x_dim(self) -> int:
        return sum(self.factors)

    @property
    def dim(self) -> int:
        return self.x_dim + self.y_dim


def _x_polarization(factors) -> PolarizedTorus:
    pol = xi_g(factors[0])
    for g in factors[1:]:
        pol = box_product(pol, xi_g(g))
    return pol


def _y_polarization(y_dim: int, divisors) -> PolarizedTorus:
    diag = [1] * (y_dim - len(divisors)) + list(divisors)
    return PolarizedTorus(Torus(RATIONAL, y_dim), split_form(IntMatrix.diagonal(diag)))


def _factor_generators(factors, total: int) -> list[IntMatrix]:
    """Permutation generators of each factor, embedded side by side in diag(E, E)."""
    gens = []
    offset = 0
    for g in factors:
        for b in example_b(g)[0].generators:
            rows = [[int(i == j) for j in range(2 * total)] for i in range(2 * total)]
            for half in (0, total):
                for r in range(g):
                    for c in range(g):
                        rows[half + offset + r][half + offset + c] = b[r, c]
            gens.append(IntMatrix.from_rows(rows))
        offset += g
    return gens


def _graph_lift(t, u, gx: int, gy: int) -> tuple[Fraction, ...]:
    # product coordinates: (x plain, y plain, x second half, y second half)
    return tuple(t[:gx]) + tuple(u[:gy]) + tuple(t[gx:]) + tuple(u[gy:])


def _denominator(graph) -> int:
    return math.lcm(*(c.denominator for gamma in graph for c in gamma))


def _graph_columns(graph, n: int, den: int) -> IntMatrix:
    """den·graph as integer columns; den is a multiple of every denominator."""
    return IntMatrix.from_columns([[int(den * c) for c in gamma] for gamma in graph],
                                  rows=2 * n)


def build_standard(factor_genera, y_dim: int) -> GluedPPAV:
    """Glue the permutation factors to a matching Y along their kernels."""
    factors = tuple(int(g) for g in factor_genera)
    if not factors or any(g < 1 for g in factors):
        raise ValueError("factor genera must be a nonempty list of counts >= 1")
    divisors = elementary_divisors([g + 1 for g in factors])
    if y_dim < len(divisors):
        raise TypeMismatch(
            f"y_dim {y_dim} cannot carry {len(divisors)} nontrivial divisors")
    x_pol = _x_polarization(factors)
    y_pol = _y_polarization(y_dim, divisors)
    gx, gy = x_pol.g, y_pol.g
    n = gx + gy
    prod = box_product(x_pol, y_pol)

    bx = symplectic_basis(kernel_group(x_pol))
    by = symplectic_basis(kernel_group(y_pol))
    if not bx.orders == divisors == by.orders:
        raise TypeMismatch(f"kernel orders {bx.orders}, {by.orders} differ from {divisors}")
    # x_j -> v_j, y_j -> u_j negates the pairing, so the graph is isotropic;
    # the pulled-back form is integral exactly when it is
    images = []
    for (xj, yj), (uj, vj) in zip(bx.pairs, by.pairs):
        images.append((xj, vj))
        images.append((yj, uj))
    graph = tuple(_graph_lift(t, u, gx, gy) for t, u in images)

    # the overlattice is h/den with h the column HNF of den·[I | graph]
    den = _denominator(graph)
    h = hnf_columns(hstack(IntMatrix.identity(2 * n).scaled(den),
                           _graph_columns(graph, n, den)))
    p = h.to_rat().scaled(Fraction(1, den))
    m_rat = (h.transpose() * prod.form * h).to_rat().scaled(Fraction(1, den * den))
    if not m_rat.is_integral():
        raise IntegralityFailure("pulled-back form is not integral")
    m_a = m_rat.to_int()

    index = Fraction(den ** (2 * n), abs(h.det()))
    if index != math.prod(divisors) ** 2:
        raise TypeMismatch(f"overlattice index {index} is not the squared divisor product")
    if abs(pfaffian(m_a)) != 1:
        raise TypeMismatch("pulled-back form is not principal")

    # the overlattice contains Z^2n, so its inverse basis is integral
    q = p.inverse().to_int()
    actions = []
    for gen in _factor_generators(factors, n):
        lifted = (q * gen * h).to_rat().scaled(Fraction(1, den))
        if not lifted.is_integral():
            raise IntegralityFailure("action does not preserve the overlattice")
        actions.append(lifted.to_int())
    return GluedPPAV(factors, y_dim, p, m_a, tuple(actions), graph)


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class GlueReport:
    """Named re-checks of every glued invariant, in evaluation order."""

    checks: tuple[tuple[str, bool], ...]
    first_failure: str | None
    fixed_dim: int
    overlattice_index: int

    @property
    def all_passed(self) -> bool:
        return self.first_failure is None


@functools.lru_cache(maxsize=None)
def verify_glued(a: GluedPPAV) -> GlueReport:
    """Re-derive and test all invariants of a glued variety from scratch.

    With the overlattice p = h/den and p^-1 = q/qden every check is an integer
    matrix product.  There must be one stored action per factor generator,
    each the identity or a pseudoreflection, and the stored graph must span
    the overlattice with Z^2n.  A GluedPPAV is a frozen value, so the report
    is cached: decompose_glued re-uses the one its caller already made.
    """
    divisors = elementary_divisors([g + 1 for g in a.factors])
    x_pol = _x_polarization(a.factors)
    y_pol = _y_polarization(a.y_dim, divisors)
    prod = box_product(x_pol, y_pol)
    n = a.dim
    form = a.form
    den = a.overlattice.common_denominator()
    h = a.overlattice.scaled(den).to_int()
    hdet = h.det()
    # a singular overlattice fails every check that needs p^-1
    j = None
    if hdet:
        p_inv = a.overlattice.inverse()
        qden = p_inv.common_denominator()
        q = p_inv.scaled(qden).to_int()
        # j = k·p^-1·J·p with k = qden·den > 0, a multiple of the lifted structure
        k = qden * den
        j = q * Torus(RATIONAL, n).complex_structure() * h

    checks = []
    checks.append(("form-integral",
                   h.transpose() * prod.form * h == form.scaled(den * den)))
    alternating = form.transpose() == -form
    checks.append(("form-alternating", alternating))
    checks.append(("form-unimodular", alternating and form.rows % 2 == 0
                   and abs(pfaffian(form)) == 1))

    # is_positive_definite also tests symmetry
    checks.append(("form-positive", j is not None and is_positive_definite(form * j * 2)))
    checks.append(("complex-structure", j is not None
                   and j.transpose() * form * j == form.scaled(k * k)))

    checks.append(("action-preserves-form",
                   all(r.transpose() * form * r == form for r in a.actions)))
    checks.append(("action-commutes-structure",
                   j is not None and all(r * j == j * r for r in a.actions)))

    # r moves each graph vector by a product-lattice vector: with the graph
    # as integer columns over gden, (h·r·q - k)·cols vanishes mod k·gden
    gden = _denominator(a.graph)
    cols = _graph_columns(a.graph, n, gden)
    checks.append(("graph-action-trivial", j is not None and all(
        x % (k * gden) == 0
        for r in a.actions
        for row in (h * r * q * cols - cols.scaled(k)).entries for x in row)))

    identity = IntMatrix.identity(2 * n)
    checks.append(("x-action-reflections", len(a.actions) == a.x_dim
                   and all(rank_over_field(r - identity) in (0, 2) for r in a.actions)))

    index = Fraction(den ** (2 * n), abs(hdet)) if hdet else Fraction(0)
    span = math.lcm(den, gden)
    checks.append(("overlattice-index",
                   index == math.prod(divisors) ** 2
                   and hnf_columns(h.scaled(span // den)) == hnf_columns(
                       hstack(identity.scaled(span), _graph_columns(a.graph, n, span)))))

    stacked = vstack(*(rho - identity for rho in a.actions))
    fdim = kernel_basis(stacked).cols // 2
    first = next((name for name, ok in checks if not ok), None)
    return GlueReport(tuple(checks), first, fdim,
                      int(index) if index.denominator == 1 else 0)


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
    report = verify_glued(a)
    if report.first_failure is not None:
        raise InvalidGlue(report.first_failure)
    n2 = 2 * a.dim
    y_basis = kernel_basis(vstack(*(rho - IntMatrix.identity(n2)
                                    for rho in a.actions)))
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


def _parse_grid(grid) -> IntMatrix:
    return IntMatrix.from_rows([[int(x) for x in row] for row in grid],
                               cols=len(grid[0]) if grid else 0)


def glued_to_json(a: GluedPPAV) -> str:
    den = a.overlattice.common_denominator()
    graph_den = _denominator(a.graph)
    return json.dumps({
        "factors": list(a.factors),
        "y_dim": a.y_dim,
        "overlattice_num": _int_grid(a.overlattice.scaled(den).to_int()),
        "overlattice_den": str(den),
        "form": _int_grid(a.form),
        "actions": [_int_grid(m) for m in a.actions],
        "graph_num": [[str(c * graph_den) for c in gamma] for gamma in a.graph],
        "graph_den": str(graph_den),
    })


def glued_from_json(text: str) -> GluedPPAV:
    """Load a glued variety and re-verify it; raises InvalidGlue on a failed check."""
    data = json.loads(text)
    den = int(data["overlattice_den"])
    graph_den = int(data["graph_den"])
    if den < 1 or graph_den < 1:
        raise ValueError("overlattice_den and graph_den must be positive")
    num = _parse_grid(data["overlattice_num"])
    graph = tuple(tuple(Fraction(int(c), graph_den) for c in gamma)
                  for gamma in data["graph_num"])
    glued = GluedPPAV(
        factors=tuple(int(g) for g in data["factors"]),
        y_dim=int(data["y_dim"]),
        overlattice=num.to_rat().scaled(Fraction(1, den)),
        form=_parse_grid(data["form"]),
        actions=tuple(_parse_grid(m) for m in data["actions"]),
        graph=graph,
    )
    report = verify_glued(glued)
    if report.first_failure is not None:
        raise InvalidGlue(report.first_failure)
    return glued
