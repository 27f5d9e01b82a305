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

from ppavlab.exact_linalg import (  # noqa: E402
    IntMatrix,
    hnf_columns,
    rank_over_field,
    snf_diagonal,
)
from ppavlab.group_actions import example_a, example_c  # noqa: E402
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
