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

import itertools
import json
import operator
from functools import lru_cache
from typing import NamedTuple

from .exact_linalg import (
    IntMatrix,
    _row_hnf,
    is_positive_definite,
    kernel_basis,
)
from .polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    _json_fields,
    associated_symmetric,
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
    W,
    _order_pairs,
    order_by_kind,
    rational_rep,
)


class CapExceeded(RuntimeError):
    """Closure grew past the element cap."""


class DimensionMismatch(ValueError):
    """Operands do not act on the same torus."""


class NotInvariant(ValueError):
    """The group does not preserve the given form."""


class MatrixGroup(NamedTuple):
    """Finite group on a torus; each element is its integer action matrix.

    The generators generate the elements, so `invariant_form` tests only
    them.  `closure` and `group_from_json` guarantee this; the constructor
    does not check it.
    """

    torus: Torus
    generators: tuple[IntMatrix, ...]
    elements: tuple[IntMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _column_nonzeros(r: IntMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each column's non-zero entries of r, as (row, value) pairs."""
    return tuple(tuple((k, v) for k, v in enumerate(col) if v) for col in r.columns())


def _times(cols: tuple, nonzeros: tuple) -> tuple:
    """Columns of e * r, from e's columns and r's column non-zeros.

    Column j of e * r is the sum of v * (column k of e) over the non-zeros
    (k, v) of column j of r.  r is invertible, so no column of r is zero.
    """
    out = []
    for nz in nonzeros:
        acc = None
        for k, v in nz:
            col = cols[k] if v == 1 else [v * x for x in cols[k]]
            acc = col if acc is None else list(map(operator.add, acc, col))
        out.append(tuple(acc))
    return tuple(out)


def _identity_columns(n: int) -> tuple:
    return tuple(IntMatrix.identity(n).columns())


def _grow(seen: set, fresh, steps):
    """Levels of a breadth-first search: each is fresh·steps - seen, added to seen.

    Elements are held by their columns and multiplied by a generator through
    the generator's column non-zeros (`_times`).  The last level is empty.
    """
    while fresh:
        fresh = {_times(e, step) for e in fresh for step in steps} - seen
        seen |= fresh
        yield fresh


def _close(torus: Torus, actions: tuple[IntMatrix, ...], cap: int) -> MatrixGroup:
    """Group generated by integer action matrices, in breadth-first order.

    Elements are listed by word length and, within a level, by the
    lexicographic order of their O-entries (`_order_pairs`), so element
    indexing is reproducible.  Raises CapExceeded past `cap` elements, or
    when two elements agree mod 3: reduction mod p >= 3 is injective on
    finite subgroups of GL_2g(Z) (Minkowski), so such a group is infinite.
    """
    if any(abs(r.det()) != 1 for r in actions):
        raise ValueError("generators must have unit determinant")
    g, n = torus.g, torus.lattice_rank
    steps = [_column_nonzeros(r) for r in actions]
    identity = _identity_columns(n)
    seen, residues, elements = {identity}, set(), []
    for level in itertools.chain([[identity]], _grow(seen, [identity], steps)):
        residues.update(tuple([x % 3 for col in e for x in col]) for e in level)
        elements.extend(sorted(level, key=lambda e: _order_pairs(g, e)))
        if len(residues) < len(elements):
            raise CapExceeded("two elements agree mod 3, so the group is infinite")
        if len(elements) > cap:
            raise CapExceeded(f"group has more than {cap} elements")
    return MatrixGroup(torus, actions,
                       tuple(IntMatrix(n, n, tuple(zip(*e))) for e in elements))


def closure(gens) -> MatrixGroup:
    """Group generated by finite-order O-matrices on one torus (see _close)."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    order, g = gens[0].order, gens[0].g
    if any(m.order != order or m.g != g for m in gens):
        raise DimensionMismatch("generators must share the torus")
    return _close(Torus(order, g), tuple(rational_rep(m) for m in gens), 10 ** 6)


def invariant_form(group: MatrixGroup, p: PolarizedTorus) -> bool:
    """Whether the group preserves the form: exactly when its generators do."""
    if group.torus != p.torus:
        raise DimensionMismatch("group and polarization live on different tori")
    m = p.form
    return all(r.transpose() * m * r == m for r in group.generators)


def _minus_identity_rows(e: IntMatrix):
    """The rows of e - 1, written directly from e's entries."""
    return ([x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(e.entries))


def reflection_rank(e: IntMatrix) -> int:
    """rank(e - 1) over Q, capped at 3: 2 marks a pseudoreflection, 0 the identity.

    One fraction-free pass over the non-zero rows of e - 1: each pivot row
    clears its leading column from the others, and the pass stops at the
    third pivot.
    """
    rows = [r for r in _minus_identity_rows(e) if any(r)]
    rank = 0
    while rows:
        rank += 1
        if rank == 3:
            break
        pivot = rows.pop()
        c = next(j for j, x in enumerate(pivot) if x)
        lead = pivot[c]
        rows = [r for r in ([lead * x - row[c] * y for x, y in zip(row, pivot)]
                            if row[c] else row for row in rows) if any(r)]
    return rank


def pseudoreflection_generated(group: MatrixGroup) -> tuple[bool, int]:
    """(whether the pseudoreflections generate, how many there are).

    A pseudoreflection has rank(e - 1) = 1 over the fraction field of the
    order.  The integer action matrix is the regular representation, whose
    Q-rank is twice that (over Z it is diag(A, A)), so the test is rank 2.
    The subgroup is closed greedily: a reflection joins the generators only
    when the subgroup so far misses it, until the subgroup is the group.
    The subgroup is closed under the old steps, so the first level of a
    join is sub·r - sub for the new step r alone; the later levels take
    every step.
    """
    refl = [e for e in group.elements if reflection_rank(e) == 2]
    if not refl:
        return group.order == 1, 0
    sub, steps = {_identity_columns(group.torus.lattice_rank)}, []
    for r in refl:
        if tuple(r.columns()) in sub:
            continue
        step = _column_nonzeros(r)
        steps.append(step)
        first = {_times(e, step) for e in sub} - sub
        sub |= first
        for _ in itertools.chain([first], _grow(sub, first, steps)):
            if len(sub) > group.order:
                raise CapExceeded(f"group has more than {group.order} elements")
        if len(sub) == group.order:
            break
    return len(sub) == group.order, len(refl)


def fixed_sublattice(n: int, actions: tuple[IntMatrix, ...]) -> IntMatrix:
    """Saturated basis of the vectors of Z^n fixed by every action matrix.

    The stacked (r - 1) is first cut to its row HNF, at most n rows with
    the same row space and so the same kernel.
    """
    stacked = [row for r in actions for row in _minus_identity_rows(r)]
    rows = _row_hnf(stacked, n)
    return kernel_basis(IntMatrix(len(rows), n, tuple(map(tuple, rows))))


# -- invariant compatible forms ----------------------------------------------


def ns_fixed(group: MatrixGroup) -> tuple[int, tuple[IntMatrix, ...]]:
    """Integral basis of the group-invariant compatible forms.

    Over the rational integers the compatible forms are split_form(B) for
    symmetric B; over a CM order they are the alternating forms M with
    J^t M J = N(w) M.  A form is invariant when rho^t M rho = M for every
    generator.  Each unknown fills one or two entries (a, b), a < b, of M:
    over a CM order an entry above the diagonal, over Z an entry B_ij,
    i <= j, which fills (i, g+j) and (j, g+i).  Each equation t^t M t = c M
    is alternating, so it is read off its strict upper triangle: entry
    (k, l) of t^t E_ab t, for the unit alternating form E_ab, is
    t[a][k] t[b][l] - t[b][k] t[a][l].  The integer solution lattice is
    returned; a rank-one generator is sign normalized toward positivity
    when possible.
    """
    torus = group.torus
    g, n = torus.g, torus.lattice_rank
    # M is invariant when t^t M t = c M for each equation (t's entries, c)
    equations = [(rho.entries, 1) for rho in group.generators]
    if torus.order.is_cm:
        unknowns = [((a, b),) for a in range(n) for b in range(a + 1, n)]
        equations.append((torus.complex_structure().entries, torus.order.norm_w))
    else:
        unknowns = [tuple(sorted({(i, g + j), (j, g + i)})) for i in range(g) for j in range(i, g)]
    rows = {}  # each distinct linear equation on the coefficients, in order
    for t, c in equations:
        rows.update(dict.fromkeys(
            tuple(sum(t[a][k] * t[b][l] - t[b][k] * t[a][l] for a, b in cells)
                  - c * ((k, l) in cells) for cells in unknowns)
            for k in range(n) for l in range(k + 1, n)))
    sols = kernel_basis(IntMatrix(len(rows), len(unknowns), tuple(rows)))
    forms = []
    for col in sols.columns():
        m = [[0] * n for _ in range(n)]
        for x, cells in zip(col, unknowns):
            for a, b in cells:
                m[a][b], m[b][a] = x, -x
        forms.append(IntMatrix(n, n, tuple(map(tuple, m))))
    if len(forms) == 1:
        forms[0] = _positivity_normalized(torus, forms[0])
    return len(forms), tuple(forms)


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
    primitive = IntMatrix(n, n, tuple(tuple(x // mult for x in row) for row in total.entries))
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


# m -> (order, unit of multiplicative order m over it): -1, w, i = w and -w
_UNIT_OF_ORDER = {2: (RATIONAL, OrderElem(-1, 0)), 3: (EISENSTEIN, W),
                  4: (GAUSSIAN, W), 6: (EISENSTEIN, OrderElem(0, -1))}

# The examples close their whole group, 0.1 ms or more per element on a 2-core
# host: example_b(7) closes 40,320 elements in 6 s and example_a(6, 2) 46,080
# in 3.7 s, while example_a(5, 4) (122,880) takes 8 s and example_b(8) would
# close 362,880.
EXAMPLE_ORDER_LIMIT = 50_000


def _require_example_order(call: str, factors) -> None:
    """ValueError naming the limit when the group order, the product of
    factors, passes it; the product stops at the first partial past it."""
    order = 1
    for f in factors:
        order *= f
        if order > EXAMPLE_ORDER_LIMIT:
            raise ValueError(f"{call} would close more than"
                             f" EXAMPLE_ORDER_LIMIT = {EXAMPLE_ORDER_LIMIT} elements")


# typed: 2.0 or True must not hit the cache entry of 2 or 1, past the checks
@lru_cache(maxsize=None, typed=True)
def example_a(g: int, m: int) -> tuple[MatrixGroup, PolarizedTorus]:
    """Coordinate unit of order m on the first factor, plus all permutations.

    The group is the wreath product of Z/m by S_g, of order m^g g!.
    """
    if type(g) is not int or g < 1:
        raise ValueError(f"g must be >= 1 (an int, not a bool), got {g!r}")
    if type(m) is not int or m not in _UNIT_OF_ORDER:
        raise BadOrder(f"unit order m must be one of 2, 3, 4, 6, got {m!r}")
    _require_example_order(f"example_a({g}, {m})", (m * k for k in range(1, g + 1)))
    order, zeta = _UNIT_OF_ORDER[m]
    gens = [OrderMatrix(order, tuple(tuple(zeta if i == j == 0 else OrderElem(int(i == j), 0)
                                          for j in range(g)) for i in range(g)))]
    gens.extend(_adjacent_transpositions(order, g))
    return closure(gens), theta_g(g, order)


def _zero_sum_generators(g: int) -> list[OrderMatrix]:
    """Adjacent transpositions of the first g coordinates, then the zero-sum row."""
    gens = _adjacent_transpositions(RATIONAL, g)
    last = [[int(i == j) for j in range(g)] for i in range(g - 1)]
    last.append([-1] * g)
    gens.append(OrderMatrix.from_int_rows(RATIONAL, last))
    return gens


@lru_cache(maxsize=None, typed=True)
def example_b(g: int) -> tuple[MatrixGroup, PolarizedTorus]:
    """All permutations of g+1 zero-sum coordinates, written in the first g."""
    if type(g) is not int or g < 1:
        raise ValueError(f"g must be >= 1 (an int, not a bool), got {g!r}")
    _require_example_order(f"example_b({g})", range(2, g + 2))
    return closure(_zero_sum_generators(g)), xi_g(g)


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


# -- serialization ---------------------------------------------------------------


def group_to_json(group: MatrixGroup) -> str:
    return json.dumps({
        "order_kind": group.torus.order.kind,
        "g": group.torus.g,
        "elements": [_order_pairs(group.torus.g, e.columns()) for e in group.elements],
    })


def group_from_json(text: str) -> MatrixGroup:
    kind, g, flat_elements = _json_fields(text, "order_kind", "g", "elements")
    torus = Torus(order_by_kind(kind), g)
    if not isinstance(flat_elements, list):
        raise ValueError("elements must be a list")
    for flat in flat_elements:
        if not isinstance(flat, list) or len(flat) != g * g:
            raise ValueError(f"each element needs exactly {g * g} O-entries")
    # OrderMatrix.from_pairs checks that each O-entry is a pair of 2 ints
    elements = tuple(
        rational_rep(OrderMatrix.from_pairs(
            torus.order, [flat[i * g:(i + 1) * g] for i in range(g)]))
        for flat in flat_elements)
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
