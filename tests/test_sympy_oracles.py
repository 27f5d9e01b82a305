"""Differential tests of the integer kernels against sympy.

sympy is a test-only oracle: it is declared in the `test` extra and never
imported by the library.  The module is skipped when sympy is missing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from oracles import rank_over_field, saturate  # noqa: E402
from ppavlab.exact_linalg import (  # noqa: E402
    IntMatrix,
    RankDeficient,
    hnf_columns,
    is_positive_definite,
    kernel_basis,
    snf_diagonal,
)
from ppavlab.group_actions import example_a, example_c  # noqa: E402
from ppavlab.polarizations import NotSaturated, _check_saturated  # noqa: E402
from ppavlab.tori import EISENSTEIN, GAUSSIAN, OrderMatrix, rational_rep  # noqa: E402

small_ints = st.integers(min_value=-6, max_value=6)


def matrix_strategy(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(small_ints, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(IntMatrix.from_rows)))


@settings(max_examples=150, deadline=None)
@given(matrix_strategy())
def test_snf_diagonal_matches_sympy_invariant_factors(m):
    expected = [int(x) for x in invariant_factors(sympy.Matrix(m.entries),
                                                  domain=sympy.ZZ)]
    expected += [0] * (min(m.rows, m.cols) - len(expected))
    assert list(snf_diagonal(m)) == expected


@st.composite
def sparse_product_operands(draw, max_dim=6):
    """a (r x n) and b (n x c) with zero rows, unit rows and sparse or dense rows."""
    r, n, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    entry = st.one_of(st.just(0), st.just(0), st.just(1), small_ints)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(small_ints, min_size=c, max_size=c), min_size=n, max_size=n))
    return IntMatrix.from_rows(a, cols=n), IntMatrix.from_rows(b, cols=c)


@settings(max_examples=150, deadline=None)
@given(sparse_product_operands())
def test_product_matches_sympy(operands):
    a, b = operands
    expected = (sympy.Matrix(a.rows, a.cols, [x for row in a.entries for x in row])
                * sympy.Matrix(b.rows, b.cols, [x for row in b.entries for x in row]))
    got = a * b
    assert (got.rows, got.cols) == expected.shape
    assert got.entries == tuple(tuple(int(x) for x in expected.row(i))
                                for i in range(expected.rows))


@st.composite
def symmetric_matrix(draw, max_dim=6):
    """A symmetric matrix, or half the time a Gram matrix B^t B (often definite)."""
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        rows = [[sum(rows[r][i] * rows[r][j] for r in range(k)) for j in range(n)]
                for i in range(n)]
    return IntMatrix.from_rows([[rows[min(i, j)][max(i, j)] for j in range(n)]
                                for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(symmetric_matrix())
def test_positive_definite_matches_sympy(m):
    assert is_positive_definite(m) == sympy.Matrix(m.entries).is_positive_definite


def sympy_hnf(m: IntMatrix) -> IntMatrix:
    if m.cols == 0:
        return m
    h = hermite_normal_form(sympy.Matrix(m.entries))
    return IntMatrix.from_rows([[int(x) for x in row] for row in h.tolist()],
                               cols=h.cols)


@settings(max_examples=150, deadline=None)
@given(matrix_strategy())
def test_hnf_columns_spans_sympy_hermite_lattice(m):
    ours = hnf_columns(m)
    # same canonical basis from sympy's generators, and sympy sees one lattice
    assert ours == hnf_columns(sympy_hnf(m))
    assert sympy_hnf(ours) == sympy_hnf(m)


@settings(max_examples=150, deadline=None)
@given(matrix_strategy())
def test_kernel_basis_spans_sympy_nullspace_and_is_saturated(m):
    k = kernel_basis(m)
    null = sympy.Matrix(m.entries).nullspace()
    assert k.cols == len(null)
    if null:
        ours = sympy.Matrix(k.entries)
        # one Q-space: k.cols independent columns inside a span of dimension k.cols
        assert ours.row_join(sympy.Matrix.hstack(*null)).rank() == k.cols
        # saturated: every invariant factor of the basis is 1
        assert [int(x) for x in invariant_factors(ours, domain=sympy.ZZ)] == [1] * k.cols


@st.composite
def sublattice_bases(draw, max_dim=8):
    """n x k bases, n <= 8: saturated (k columns of a unimodular matrix),
    not saturated (one such column scaled), rank-deficient (one column a
    combination of the others, or k > n), or random."""
    n = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["saturated", "scaled", "dependent", "random"]))
    k = draw(st.integers(1, n + 1 if kind in ("dependent", "random") else n))
    if kind == "random":
        return IntMatrix.from_columns(draw(st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=k, max_size=k)), rows=n)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for i, j, q in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=3 * n)):
        if i != j:
            cols[j] = [a + q * b for a, b in zip(cols[j], cols[i])]
    cols = cols[:k]
    if kind == "scaled":
        j = draw(st.integers(0, k - 1))
        cols[j] = [draw(st.integers(2, 4)) * x for x in cols[j]]
    elif kind == "dependent":
        coeffs = draw(st.lists(small_ints, min_size=k - 1, max_size=k - 1))
        cols = [[sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)], *cols[:k - 1]]
    return IntMatrix.from_columns(cols, rows=n)


@settings(max_examples=300, deadline=None)
@given(sublattice_bases())
def test_saturation_verdict_matches_sympy_invariant_factors(s):
    theirs = sympy.Matrix(s.entries)
    factors = [int(x) for x in invariant_factors(theirs, domain=sympy.ZZ)]
    try:
        canon, message = _check_saturated(s), None
    except NotSaturated as exc:
        canon, message = None, str(exc)
    if theirs.rank() < s.cols:
        assert message == "sublattice basis must be non-empty, of full column rank"
        with pytest.raises(RankDeficient):
            saturate(s)
        return
    # full rank: Z^n / span(s) is torsion-free exactly when every factor is 1
    assert (message is None) == (factors == [1] * s.cols)
    assert (message is None) == (saturate(s) == hnf_columns(s))
    if message is None:
        assert canon == hnf_columns(s)
    else:
        assert message == "sublattice is not saturated in the ambient lattice"


# -- rank of m - 1 over the fraction field of the order ------------------------

# w as a complex number: i for Z[i], and the root (-1 + sqrt(-3))/2 of
# w^2 = -w - 1 for Z[w].  sympy finds the minimal polynomial of that number
# and does the field arithmetic of Q(w) itself.
W_VALUE = {GAUSSIAN: sympy.I, EISENSTEIN: (-1 + sympy.sqrt(-3)) / 2}
CM_ORDERS = list(W_VALUE)
FIELDS = {o: sympy.QQ.algebraic_field(w) for o, w in W_VALUE.items()}
W_IN_FIELD = {o: FIELDS[o].from_sympy(w) for o, w in W_VALUE.items()}


def sympy_rank_minus_id(m: OrderMatrix) -> int:
    """Rank of m - 1 as a complex matrix, computed exactly in Q(w)."""
    field, w = FIELDS[m.order], W_IN_FIELD[m.order]
    rows = [[field(x.a - int(i == j)) + field(x.b) * w for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)]
    return DomainMatrix(rows, (m.g, m.g), field).rank()


def doubled_rank_minus_id(m: OrderMatrix) -> int:
    return rank_over_field(rational_rep(m) - IntMatrix.identity(2 * m.g))


def test_rational_rank_doubles_analytic_rank_seeded():
    # random matrices, plus every element of the CM example groups, whose
    # ranks of m - 1 run from 0 (identity) through 1 (pseudoreflections)
    rng = random.Random(19)
    cases = []
    for o in CM_ORDERS:
        for _ in range(60):
            g = rng.randint(1, 3)
            cases.append(OrderMatrix.from_pairs(
                o, [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(g)]
                    for _ in range(g)]))
    for grp in (example_a(2, 4)[0], example_a(2, 3)[0], example_a(2, 6)[0],
                example_c()[0]):
        # read each stored action [[A, vB], [B, A + uB]] back as A + B*w
        for e in grp.elements:
            m = OrderMatrix.from_pairs(
                grp.torus.order, [[(e[i, j], e[2 + i, j]) for j in range(2)]
                                  for i in range(2)])
            assert rational_rep(m) == e
            cases.append(m)
    ranks = set()
    for m in cases:
        rank = sympy_rank_minus_id(m)
        assert doubled_rank_minus_id(m) == 2 * rank
        ranks.add(rank)
    assert {0, 1, 2} <= ranks


@settings(deadline=None)
@given(st.sampled_from(CM_ORDERS),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=4))
def test_rank_doubling_property(o, flat):
    m = OrderMatrix.from_pairs(o, [flat[:2], flat[2:]])
    assert doubled_rank_minus_id(m) == 2 * sympy_rank_minus_id(m)
