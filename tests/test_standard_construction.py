"""Kernel gluing: symplectic bases, the glued overlattice, and decomposition."""

import dataclasses
import json
from fractions import Fraction

import pytest

from ppavlab.exact_linalg import IntMatrix, pfaffian
from ppavlab.group_actions import closure, pseudoreflection_generated
from ppavlab.polarizations import (
    FiniteSymplecticGroup,
    box_product,
    kernel_group,
    polarization_type,
    theta_g,
    weil_pairing,
    xi_g,
)
from ppavlab.standard_construction import (
    DegeneratePairing,
    GluedPPAV,
    IntegralityFailure,
    InvalidGlue,
    TypeMismatch,
    _factor_generators,
    build_standard,
    decompose_glued,
    elementary_divisors,
    glued_from_json,
    glued_to_json,
    symplectic_basis,
    verify_glued,
)

GRID = (((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 3), 1))


def x_side(factors):
    pol = xi_g(factors[0])
    for g in factors[1:]:
        pol = box_product(pol, xi_g(g))
    return pol


# -- elementary divisors -----------------------------------------------------


def test_elementary_divisors_examples():
    assert elementary_divisors([2]) == (2,)
    assert elementary_divisors([2, 3]) == (6,)
    assert elementary_divisors([2, 4]) == (2, 4)
    assert elementary_divisors([1, 1]) == ()
    assert elementary_divisors([]) == ()


def test_elementary_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        elementary_divisors([2, 0])


# -- symplectic bases ----------------------------------------------------------


def test_symplectic_basis_trivial():
    basis = symplectic_basis(kernel_group(theta_g(1)))
    assert basis.pairs == () and basis.orders == ()


def test_symplectic_basis_order_two():
    k = kernel_group(xi_g(1))
    basis = symplectic_basis(k)
    assert basis.orders == (2,)
    x, y = basis.pairs[0]
    assert weil_pairing(k, x, y) == Fraction(1, 2)


def test_symplectic_basis_order_three():
    basis = symplectic_basis(kernel_group(xi_g(2)))
    assert basis.orders == (3,)


def test_symplectic_basis_mixed_factors():
    # (Z/2)^2 + (Z/3)^2 reduces to a single hyperbolic pair of order 6
    k = kernel_group(box_product(xi_g(1), xi_g(2)))
    basis = symplectic_basis(k)
    assert basis.orders == (6,)
    x, y = basis.pairs[0]
    assert weil_pairing(k, x, y) == Fraction(1, 6)


def test_symplectic_basis_pairing_matrix():
    k = kernel_group(box_product(xi_g(1), xi_g(1)))
    basis = symplectic_basis(k)
    assert basis.orders == (2, 2)
    for j, (xj, yj) in enumerate(basis.pairs):
        for l, (xl, yl) in enumerate(basis.pairs):
            want = Fraction(1, basis.orders[j]) if j == l else 0
            assert weil_pairing(k, xj, yl) == want
            assert weil_pairing(k, xj, xl) == 0
            assert weil_pairing(k, yj, yl) == 0


def test_symplectic_basis_deterministic():
    k = kernel_group(box_product(xi_g(2), xi_g(1)))
    assert symplectic_basis(k) == symplectic_basis(k)


def test_symplectic_basis_degenerate():
    k = kernel_group(xi_g(2))
    isotropic = FiniteSymplecticGroup(k.ambient, (k.generators[0],),
                                      (k.orders[0],))
    with pytest.raises(DegeneratePairing):
        symplectic_basis(isotropic)


# -- building ------------------------------------------------------------------


def test_build_grid_invariants():
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        report = verify_glued(glued)
        assert report.first_failure is None
        assert report.all_passed
        divisors = elementary_divisors([g + 1 for g in factors])
        total = 1
        for d in divisors:
            total *= d
        assert report.overlattice_index == total ** 2
        assert report.fixed_dim == y_dim
        assert glued.dim == sum(factors) + y_dim


def test_build_check_names_ordered():
    report = verify_glued(build_standard([1], 1))
    assert [name for name, _ in report.checks] == [
        "form-integral", "form-alternating", "form-unimodular",
        "form-positive", "complex-structure", "action-preserves-form",
        "action-commutes-structure", "graph-action-trivial",
        "x-action-reflections", "overlattice-index"]


def test_x_action_reflections_matches_closed_product_group():
    # verify_glued decides the check per factor group; closing the block
    # product of the factors and counting its pseudoreflections is the
    # independent route
    for factors in ((1,), (2,), (1, 1), (2, 3), (1, 1, 1, 1)):
        y_dim = len(elementary_divisors([g + 1 for g in factors]))
        report = verify_glued(build_standard(factors, y_dim))
        product = closure(_factor_generators(factors, sum(factors)))
        assert (dict(report.checks)["x-action-reflections"]
                == pseudoreflection_generated(product)[0])


def test_build_rejects_small_y():
    with pytest.raises(TypeMismatch):
        build_standard([1], 0)
    with pytest.raises(TypeMismatch):
        build_standard([1, 1], 1)


def test_build_rejects_empty_factors():
    with pytest.raises(ValueError):
        build_standard([], 1)


def test_build_principal_form_frozen_small():
    glued = build_standard([1], 1)
    assert glued.form.rows == 4
    assert abs(pfaffian(glued.form)) == 1
    assert glued.overlattice.common_denominator() == 2


# -- verification of corrupted inputs ----------------------------------------------


def test_verify_detects_perturbed_form():
    glued = build_standard([2], 1)
    rows = [list(r) for r in glued.form.entries]
    rows[0][1] += 1
    bad = dataclasses.replace(
        glued, form=IntMatrix.from_rows(rows, cols=len(rows)))
    report = verify_glued(bad)
    assert report.first_failure in ("form-integral", "form-alternating")
    with pytest.raises(InvalidGlue):
        decompose_glued(bad)


def test_verify_detects_bad_action():
    glued = build_standard([1], 1)
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    bad = dataclasses.replace(
        glued, actions=(IntMatrix.from_rows(shear, cols=4),))
    report = verify_glued(bad)
    assert not report.all_passed
    assert report.first_failure in ("action-preserves-form",
                                    "action-commutes-structure",
                                    "graph-action-trivial")


# -- decomposition -----------------------------------------------------------------


def test_decompose_roundtrips_types():
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        dec = decompose_glued(glued)
        assert dec.x_type == polarization_type(x_side(factors))
        divisors = elementary_divisors([g + 1 for g in factors])
        assert dec.y_type == (1,) * (y_dim - len(divisors)) + divisors
        assert dec.y_basis.cols == 2 * y_dim
        assert dec.x_basis.cols == 2 * sum(factors)


def test_decompose_quotient_is_graph_sized():
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        dec = decompose_glued(glued)
        kx = kernel_group(x_side(factors)).order
        total = 1
        for d in dec.y_type:
            total *= d ** 2
        assert dec.quotient_order ** 2 == kx * total


def test_decompose_examples_frozen():
    dec = decompose_glued(build_standard([2], 1))
    assert dec.x_type == (1, 3) and dec.y_type == (3,)
    dec = decompose_glued(build_standard([1], 1))
    assert dec.x_type == (2,) and dec.y_type == (2,)
    dec = decompose_glued(build_standard([2, 3], 1))
    assert dec.x_type == (1, 1, 1, 1, 12) and dec.y_type == (12,)


# -- serialization -----------------------------------------------------------------


def test_glued_json_roundtrip():
    for factors, y_dim in (((1,), 1), ((2,), 1)):
        glued = build_standard(factors, y_dim)
        back = glued_from_json(glued_to_json(glued))
        assert back == glued


def test_glued_json_uses_decimal_strings():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    assert set(data) >= {"factors", "y_dim", "overlattice_num",
                         "overlattice_den", "form", "actions"}
    assert all(isinstance(x, str) for row in data["form"] for x in row)
    assert all(isinstance(x, str) for row in data["overlattice_num"] for x in row)
    assert isinstance(data["overlattice_den"], str)
