"""Differential tests of the integer normal forms against sympy.

sympy is a test-only oracle: it is declared in the `test` extra and never
imported by the library.  The module is skipped when sympy is missing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402

from ppavlab.exact_linalg import IntMatrix, hnf_columns, snf_diagonal  # noqa: E402

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
