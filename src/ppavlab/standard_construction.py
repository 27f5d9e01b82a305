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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact_linalg import (
    IntMatrix,
    NotAlternating,
    RatMatrix,
    hnf_basis,
    hstack,
    is_positive_definite,
    kernel_basis,
    pfaffian,
    snf_diagonal,
    vstack,
)
from .group_actions import example_b, pseudoreflection_generated
from .polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    alternating_type,
    box_product,
    form_pairing,
    kernel_group,
    qmodz,
    split_form,
    xi_g,
)
from .tori import OrderMatrix, RATIONAL, Torus, rational_rep


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


def _elem_order(x) -> int:
    return math.lcm(*(c.denominator for c in x))


def _scalar_mult(t: int, x) -> tuple:
    return tuple(qmodz(t * c) for c in x)


def symplectic_basis(k: FiniteSymplecticGroup) -> SymplecticBasis:
    """Greedy hyperbolic reduction of a finite kernel group.

    Repeatedly takes an element of maximal order, finds a partner whose
    pairing has that exact order, normalizes the pairing to +1/d, and
    recurses on the orthogonal complement.  Deterministic for a fixed
    generator list.
    """
    m = k.ambient.form
    pool = [e for e in k.elements() if any(e)]
    collected = []
    while pool:
        x = max(pool, key=_elem_order)
        d = _elem_order(x)
        y = next((c for c in pool if form_pairing(m, x, c).denominator == d), None)
        if y is None:
            raise DegeneratePairing(f"no partner of order {d} in the pairing")
        num = int(form_pairing(m, x, y) * d)
        y = _scalar_mult(pow(num, -1, d), y)
        collected.append(((x, y), d))
        fresh = set()
        for z in pool:
            alpha, beta = form_pairing(m, x, z), form_pairing(m, y, z)
            a_co = int(-beta * d) % d
            b_co = int(alpha * d) % d
            w = tuple(qmodz(zc - a_co * xc - b_co * yc)
                      for zc, xc, yc in zip(z, x, y))
            if any(w):
                fresh.add(w)
        pool = sorted(fresh)
    collected.reverse()
    pairs = tuple(pq for pq, _ in collected)
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


def _embed_block(block: IntMatrix, offset: int, total: int) -> OrderMatrix:
    rows = [[int(i == j) for j in range(total)] for i in range(total)]
    for r in range(block.rows):
        for c in range(block.cols):
            rows[offset + r][offset + c] = block[r, c]
    return OrderMatrix.from_int_rows(RATIONAL, rows)


def _factor_generators(factors, total: int) -> list[OrderMatrix]:
    """Permutation generators of each factor, block-embedded side by side."""
    gens = []
    offset = 0
    for g in factors:
        for b in example_b(g)[0].generators:
            gens.append(_embed_block(b.a_part(), offset, total))
        offset += g
    return gens


def _graph_lift(t, u, gx: int, gy: int) -> tuple[Fraction, ...]:
    # product coordinates: (x plain, y plain, x second half, y second half)
    return tuple(t[:gx]) + tuple(u[:gy]) + tuple(t[gx:]) + tuple(u[gy:])


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

    f = symplectic_basis(kernel_group(x_pol))
    h = symplectic_basis(kernel_group(y_pol))
    if not f.orders == divisors == h.orders:
        raise TypeMismatch(f"kernel orders {f.orders}, {h.orders} differ from {divisors}")
    # the factor exchange negates the pairing; check it on the generating set
    images = []
    for (xj, yj), (uj, vj) in zip(f.pairs, h.pairs):
        images.append((xj, vj))
        images.append((yj, uj))
    for a, ia in images:
        for b, ib in images:
            if qmodz(form_pairing(y_pol.form, ia, ib) + form_pairing(x_pol.form, a, b)):
                raise IntegralityFailure("graph is not isotropic for the product form")
    graph = tuple(_graph_lift(t, u, gx, gy) for t, u in images)

    cols = [tuple(Fraction(int(i == j)) for i in range(2 * n)) for j in range(2 * n)]
    cols.extend(graph)
    p = hnf_basis(RatMatrix.from_columns(cols, rows=2 * n))
    m_rat = p.transpose() * prod.form.to_rat() * p
    if not m_rat.is_integral():
        raise IntegralityFailure("pulled-back form is not integral")
    m_a = m_rat.to_int()

    index = Fraction(1) / abs(p.det())
    if index != math.prod(divisors) ** 2:
        raise TypeMismatch(f"overlattice index {index} is not the squared divisor product")
    if abs(pfaffian(m_a)) != 1:
        raise TypeMismatch("pulled-back form is not principal")

    p_inv = p.inverse()
    actions = []
    for gen in _factor_generators(factors, n):
        lifted = p_inv * rational_rep(gen).to_rat() * p
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


def verify_glued(a: GluedPPAV) -> GlueReport:
    """Re-derive and test all invariants of a glued variety from scratch."""
    divisors = elementary_divisors([g + 1 for g in a.factors])
    x_pol = _x_polarization(a.factors)
    y_pol = _y_polarization(a.y_dim, divisors)
    prod = box_product(x_pol, y_pol)
    n = a.dim
    p = a.overlattice
    p_inv = p.inverse()
    form_rat = a.form.to_rat()

    checks = []
    recomputed = p.transpose() * prod.form.to_rat() * p
    checks.append(("form-integral",
                   recomputed.is_integral() and recomputed == form_rat))
    alternating = a.form.transpose() == -a.form
    checks.append(("form-alternating", alternating))
    unimodular = False
    if alternating:
        try:
            unimodular = abs(pfaffian(a.form)) == 1
        except NotAlternating:
            unimodular = False
    checks.append(("form-unimodular", unimodular))

    j_a = p_inv * Torus(RATIONAL, n).complex_structure().to_rat() * p
    s = form_rat * j_a * 2
    den = s.common_denominator()
    s_int = s.scaled(den).to_int()
    checks.append(("form-positive",
                   s_int == s_int.transpose() and is_positive_definite(s_int)))
    checks.append(("complex-structure",
                   j_a.transpose() * form_rat * j_a == form_rat))

    rhos = [rho.to_rat() for rho in a.actions]
    checks.append(("action-preserves-form",
                   all(r.transpose() * form_rat * r == form_rat for r in rhos)))
    checks.append(("action-commutes-structure",
                   all(r * j_a == j_a * r for r in rhos)))

    graph_ok = True
    for r in rhos:
        r_prod = p * r * p_inv
        for gamma in a.graph:
            moved = r_prod.mul_vec(gamma)
            if any(qmodz(mi - gi) != 0 for mi, gi in zip(moved, gamma)):
                graph_ok = False
    checks.append(("graph-action-trivial", graph_ok))

    # the pseudoreflections of a block-diagonal product are the embedded
    # pseudoreflections of its factors, so the product is generated by them
    # exactly when every factor is
    checks.append(("x-action-reflections",
                   all(pseudoreflection_generated(example_b(g)[0])[0]
                       for g in a.factors)))

    index = Fraction(1) / abs(p.det())
    checks.append(("overlattice-index", index == math.prod(divisors) ** 2))

    stacked = vstack(*(rho - IntMatrix.identity(2 * n) for rho in a.actions))
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
    graph_den = math.lcm(*(c.denominator for gamma in a.graph for c in gamma))
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
    data = json.loads(text)
    den = int(data["overlattice_den"])
    num = _parse_grid(data["overlattice_num"])
    graph_den = int(data["graph_den"])
    graph = tuple(tuple(Fraction(int(c), graph_den) for c in gamma)
                  for gamma in data["graph_num"])
    return GluedPPAV(
        factors=tuple(int(g) for g in data["factors"]),
        y_dim=int(data["y_dim"]),
        overlattice=num.to_rat().scaled(Fraction(1, den)),
        form=_parse_grid(data["form"]),
        actions=tuple(_parse_grid(m) for m in data["actions"]),
        graph=graph,
    )
