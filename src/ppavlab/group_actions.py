"""Finite matrix groups over an order acting on polarized tori.

Groups are closed element lists over a torus, built by breadth-first closure
from generators.  Each element is stored as its integer action matrix on the
2g-lattice; ``OrderMatrix`` is only the notation generators are written in.
The checks cover polarization invariance, generation by pseudoreflections,
fixed sublattices, the invariant part of the module of compatible forms,
averaged pullbacks, and the induced action on kernel groups.  Three example
actions are provided: coordinate units with permutations, the permutation
action on a zero-sum lattice, and an order-16 group over the Gaussian
integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import (
    IntMatrix,
    is_positive_definite,
    kernel_basis,
    rank_over_field,
    vstack,
)
from .polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    associated_symmetric,
    split_form,
    theta_g,
    xi_g,
)
from .tori import (
    BadOrder,
    EISENSTEIN,
    GAUSSIAN,
    OrderElem,
    OrderMatrix,
    RATIONAL,
    Torus,
    order_by_kind,
    rational_rep,
    unit_of_order,
)


class CapExceeded(RuntimeError):
    """Closure grew past the element cap."""


class DimensionMismatch(ValueError):
    """Operands do not act on the same torus."""


class NotInvariant(ValueError):
    """The group does not preserve the given form."""


@dataclass(frozen=True)
class MatrixGroup:
    """Finite group on a torus; each element is its integer action matrix."""

    torus: Torus
    generators: tuple[IntMatrix, ...]
    elements: tuple[IntMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _pairs(g: int, r: IntMatrix) -> list[tuple[int, int]]:
    """O-entries (a, b) row by row: A + B*w acts as [[A, vB], [B, A + uB]]."""
    rows = r.entries
    return [(rows[i][j], rows[g + i][j]) for i in range(g) for j in range(g)]


def _close(torus: Torus, actions: tuple[IntMatrix, ...], cap: int) -> MatrixGroup:
    """Group generated by integer action matrices, in breadth-first order.

    Elements are listed by word length and, within a level, by the
    lexicographic order of their O-entries, so element indexing is
    reproducible.  Raises CapExceeded past `cap` elements, or as soon as two
    elements agree mod 3: reduction mod p >= 3 is injective on finite
    subgroups of GL_2g(Z) (Minkowski), so such a group is infinite.
    """
    if any(abs(r.det()) != 1 for r in actions):
        raise ValueError("generators must have unit determinant")
    seen, residues, elements = set(), set(), []
    level = [IntMatrix.identity(torus.lattice_rank)]
    while level:
        for p in level:
            residue = tuple(c % 3 for row in p.entries for c in row)
            if residue in residues:
                raise CapExceeded("two elements agree mod 3, so the group is infinite")
            residues.add(residue)
        seen.update(level)
        elements.extend(level)
        if len(elements) > cap:
            raise CapExceeded(f"group has more than {cap} elements")
        fresh = {}
        for e in level:
            for r in actions:
                p = e * r
                if p not in seen and p not in fresh:
                    fresh[p] = [c for pair in _pairs(torus.g, p) for c in pair]
        level = sorted(fresh, key=fresh.get)
    return MatrixGroup(torus, actions, tuple(elements))


def closure(gens, cap: int = 10 ** 6) -> MatrixGroup:
    """Group generated by finite-order O-matrices on one torus (see _close)."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    order, g = gens[0].order, gens[0].g
    if any(m.order != order or m.g != g for m in gens):
        raise DimensionMismatch("generators must share the torus")
    return _close(Torus(order, g), tuple(rational_rep(m) for m in gens), cap)


def invariant_form(group: MatrixGroup, p: PolarizedTorus) -> bool:
    """Whether every element's lattice action preserves the form."""
    if group.torus != p.torus:
        raise DimensionMismatch("group and polarization live on different tori")
    m = p.form
    return all(e.transpose() * m * e == m for e in group.elements)


def pseudoreflection_generated(group: MatrixGroup) -> tuple[bool, int]:
    """(whether the pseudoreflections generate, how many there are).

    A pseudoreflection has rank(e - 1) = 1 over the fraction field of the
    order.  The integer action matrix is the regular representation, whose
    Q-rank is twice that (over Z it is diag(A, A)), so the test is rank 2.
    The subgroup is closed greedily: a reflection joins the generators only
    when the subgroup so far misses it, until the subgroup is the group.
    """
    ident = IntMatrix.identity(group.torus.lattice_rank)
    refl = [e for e in group.elements if rank_over_field(e - ident) == 2]
    if not refl:
        return group.order == 1, 0
    gens, sub = [], set()
    for r in refl:
        if r in sub:
            continue
        gens.append(r)
        sub = set(_close(group.torus, tuple(gens), group.order).elements)
        if len(sub) == group.order:
            break
    return len(sub) == group.order, len(refl)


def fixed_sublattice(group: MatrixGroup) -> IntMatrix:
    """Saturated basis of the lattice vectors fixed by every element."""
    n = group.torus.lattice_rank
    stacked = vstack(*(m - IntMatrix.identity(n) for m in group.generators))
    return kernel_basis(stacked)


def fixed_dim(group: MatrixGroup) -> int:
    return fixed_sublattice(group).cols // 2


# -- invariant compatible forms ----------------------------------------------


def _symmetric_basis(g: int) -> list[IntMatrix]:
    out = []
    for i in range(g):
        for j in range(i, g):
            rows = [[int((r, c) in {(i, j), (j, i)}) for c in range(g)]
                    for r in range(g)]
            out.append(IntMatrix.from_rows(rows, cols=g))
    return out


def _alternating_basis(n: int) -> list[IntMatrix]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[(1 if (r, c) == (i, j) else -1 if (r, c) == (j, i) else 0)
                     for c in range(n)] for r in range(n)]
            out.append(IntMatrix.from_rows(rows, cols=n))
    return out


def _upper_entries(m: IntMatrix, strict: bool) -> list[int]:
    lo = 1 if strict else 0
    return [m[i, j] for i in range(m.rows) for j in range(i + lo, m.cols)]


def ns_fixed(group: MatrixGroup) -> tuple[int, tuple[IntMatrix, ...]]:
    """Integral basis of the group-invariant compatible forms.

    Over the rational integers the compatible forms are the symmetric blocks
    B; over a CM order they are the alternating forms commuting with the
    complex structure.  Either way the invariance equations are linear and
    the integer solution lattice is returned; a rank-one generator is sign
    normalized toward positivity when possible.
    """
    torus = group.torus
    if torus.order.is_cm:
        n = torus.lattice_rank
        basis = _alternating_basis(n)
        j = torus.complex_structure()
        nw = torus.order.norm_w
        constraints = [lambda m: j.transpose() * m * j - m.scaled(nw)]
        for rho in group.generators:
            constraints.append(lambda m, r=rho: r.transpose() * m * r - m)
        rows_per = lambda m: _upper_entries(m, strict=True)
        rebuild = lambda coeffs: _linear_combination(basis, coeffs)
    else:
        g = torus.g
        basis = _symmetric_basis(g)
        # over Z the action is diag(A, A); B is invariant when A^t B A = B
        constraints = [lambda m, r=rho.block(0, g, 0, g): r.transpose() * m * r - m
                       for rho in group.generators]
        rows_per = lambda m: _upper_entries(m, strict=False)
        rebuild = lambda coeffs: split_form(_linear_combination(basis, coeffs))

    columns = []
    for e in basis:
        col = []
        for c in constraints:
            col.extend(rows_per(c(e)))
        columns.append(col)
    nrows = len(columns[0]) if columns else 0
    if nrows == 0:
        sols = IntMatrix.identity(len(basis))
    else:
        sols = kernel_basis(IntMatrix.from_columns(columns, rows=nrows))
    forms = [rebuild([sols[i, k] for i in range(sols.rows)])
             for k in range(sols.cols)]
    if len(forms) == 1:
        forms[0] = _positivity_normalized(torus, forms[0])
    return len(forms), tuple(forms)


def _linear_combination(basis: list[IntMatrix], coeffs: list[int]) -> IntMatrix:
    acc = IntMatrix.zeros(basis[0].rows, basis[0].cols)
    for b, c in zip(basis, coeffs):
        if c:
            acc = acc + b.scaled(c)
    return acc


def _positivity_normalized(torus: Torus, form: IntMatrix) -> IntMatrix:
    for cand in (form, -form):
        if is_positive_definite(associated_symmetric(torus, cand)):
            return cand
    return form


def average_pullback(group: MatrixGroup, p: PolarizedTorus) -> tuple[PolarizedTorus, int]:
    """Primitive part and content of the sum of the form's pullbacks."""
    if group.torus != p.torus:
        raise DimensionMismatch("group and polarization live on different tori")
    n = p.torus.lattice_rank
    total = IntMatrix.zeros(n, n)
    for rho in group.elements:
        total = total + rho.transpose() * p.form * rho
    mult = total.entry_gcd()
    primitive = IntMatrix.from_rows(
        [[x // mult for x in row] for row in total.entries], cols=n)
    return PolarizedTorus(p.torus, primitive), mult


def action_on_kernel(group: MatrixGroup, k: FiniteSymplecticGroup) -> bool:
    """True iff the group fixes every kernel element mod the lattice."""
    if not invariant_form(group, k.ambient):
        raise NotInvariant("kernel group's form is not preserved")
    for rho in group.generators:
        for x in k.generators:
            if any((a - b).denominator != 1 for a, b in zip(rho.mul_vec(x), x)):
                return False
    return True


# -- example actions -----------------------------------------------------------


def _perm_matrix(order, perm: tuple[int, ...]) -> OrderMatrix:
    g = len(perm)
    return OrderMatrix.from_int_rows(
        order, [[int(perm[r] == c) for c in range(g)] for r in range(g)])


def _adjacent_transpositions(order, g: int) -> list[OrderMatrix]:
    gens = []
    for i in range(g - 1):
        perm = list(range(g))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(_perm_matrix(order, tuple(perm)))
    return gens


_ORDER_FOR_UNIT = {2: RATIONAL, 3: EISENSTEIN, 4: GAUSSIAN, 6: EISENSTEIN}


@lru_cache(maxsize=None)
def example_a(g: int, m: int) -> tuple[MatrixGroup, PolarizedTorus]:
    """Coordinate unit of order m on the first factor, plus all permutations."""
    if m not in _ORDER_FOR_UNIT:
        raise BadOrder("unit order must be one of 2, 3, 4, 6")
    order = _ORDER_FOR_UNIT[m]
    zeta = unit_of_order(order, m)
    unit_rows = [[zeta if i == j == 0 else
                  OrderElem(int(i == j), 0) for j in range(g)] for i in range(g)]
    gens = [OrderMatrix(order, tuple(tuple(r) for r in unit_rows))]
    gens.extend(_adjacent_transpositions(order, g))
    return closure(gens), theta_g(g, order)


@lru_cache(maxsize=None)
def example_b(g: int) -> tuple[MatrixGroup, PolarizedTorus]:
    """All permutations of g+1 zero-sum coordinates, written in the first g."""
    gens = _adjacent_transpositions(RATIONAL, g)
    last = [[int(i == j) for j in range(g)] for i in range(g - 1)]
    last.append([-1] * g)
    gens.append(OrderMatrix.from_int_rows(RATIONAL, last))
    return closure(gens), xi_g(g)


@lru_cache(maxsize=None)
def example_c() -> tuple[MatrixGroup, PolarizedTorus]:
    """An order-16 Gaussian group with its primitive averaged polarization."""
    gens = [
        OrderMatrix.from_pairs(GAUSSIAN, [[(-1, 0), (1, 1)], [(0, 0), (1, 0)]]),
        OrderMatrix.from_pairs(GAUSSIAN, [[(0, -1), (-1, 1)], [(0, 0), (0, 1)]]),
        OrderMatrix.from_pairs(GAUSSIAN, [[(-1, 0), (0, 0)], [(-1, 1), (1, 0)]]),
    ]
    group = closure(gens)
    primitive, _ = average_pullback(group, theta_g(2, GAUSSIAN))
    return group, primitive


# -- summary report ------------------------------------------------------------


@dataclass(frozen=True)
class ActionReport:
    order: int
    pseudoreflections: int
    generated_by_pseudoreflections: bool
    fixed_dim: int
    ns_rank: int
    ns_generator: IntMatrix | None
    kernel_action_trivial: bool


def action_report(group: MatrixGroup, p: PolarizedTorus) -> ActionReport:
    from .polarizations import kernel_group
    generated, count = pseudoreflection_generated(group)
    rank, forms = ns_fixed(group)
    return ActionReport(
        order=group.order,
        pseudoreflections=count,
        generated_by_pseudoreflections=generated,
        fixed_dim=fixed_dim(group),
        ns_rank=rank,
        ns_generator=forms[0] if rank == 1 else None,
        kernel_action_trivial=action_on_kernel(group, kernel_group(p)),
    )


# -- serialization ---------------------------------------------------------------


def group_to_json(group: MatrixGroup) -> str:
    return json.dumps({
        "order_kind": group.torus.order.kind,
        "g": group.torus.g,
        "elements": [_pairs(group.torus.g, e) for e in group.elements],
    })


def group_from_json(text: str) -> MatrixGroup:
    data = json.loads(text)
    order = order_by_kind(data["order_kind"])
    g = int(data["g"])
    torus = Torus(order, g)
    elements = tuple(
        rational_rep(OrderMatrix.from_pairs(
            order, [flat[i * g:(i + 1) * g] for i in range(g)]))
        for flat in data["elements"])
    if len(set(elements)) != len(elements):
        raise ValueError("element list repeats an element")
    # _close checks unit determinants, and it holds the identity and every
    # listed element: a group is exactly its own closure
    try:
        closed = _close(torus, elements, cap=len(elements)).order == len(elements)
    except CapExceeded:
        closed = False
    if not closed:
        raise ValueError("element list is not closed under multiplication")
    # the schema stores no generator subset; the full element list generates
    return MatrixGroup(torus, elements, elements)
