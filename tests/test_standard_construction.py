"""Kernel gluing: symplectic bases, the glued overlattice, and decomposition."""

import dataclasses
import json
from fractions import Fraction

import pytest

from ppavlab.exact_linalg import IntMatrix, RatMatrix, pfaffian
from ppavlab.group_actions import _close, pseudoreflection_generated
from ppavlab.polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    alternating_type,
    box_product,
    kernel_group,
    polarization_type,
    scale,
    split_form,
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
from ppavlab.tori import RATIONAL, Torus

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


@pytest.mark.parametrize("pol", [
    box_product(xi_g(3), xi_g(1)),
    box_product(xi_g(2), xi_g(4)),
    scale(theta_g(2), 6),
    PolarizedTorus(Torus(RATIONAL, 3), split_form(IntMatrix.diagonal([2, 4, 12]))),
], ids=["xi3-xi1", "xi2-xi4", "6theta2", "split-2-4-12"])
def test_symplectic_basis_named_kernels(pol):
    k = kernel_group(pol)
    basis = symplectic_basis(k)
    assert basis.orders == tuple(d for d in alternating_type(pol.form) if d > 1)
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
    # verify_glued decides the check on the stored generators; closing the
    # block product of the factors and counting its pseudoreflections is
    # the independent route
    for factors in ((1,), (2,), (1, 1), (2, 3), (1, 1, 1, 1)):
        y_dim = len(elementary_divisors([g + 1 for g in factors]))
        report = verify_glued(build_standard(factors, y_dim))
        x_dim = sum(factors)
        product = _close(Torus(RATIONAL, x_dim),
                         tuple(_factor_generators(factors, x_dim)), cap=10 ** 6)
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


def _shifted(m, cells):
    rows = [list(r) for r in m.entries]
    for i, j, d in cells:
        rows[i][j] += d
    return IntMatrix.from_rows(rows, cols=m.cols)


def _corrupted(glued):
    """Named corruptions of one invariant each of a built glue."""
    n2 = glued.form.rows
    acts = glued.actions
    yield "form-pair", dataclasses.replace(
        glued, form=_shifted(glued.form, [(0, 1, 1), (1, 0, -1)]))
    yield "form-entry", dataclasses.replace(
        glued, form=_shifted(glued.form, [(0, 1, 1)]))
    yield "form-double", dataclasses.replace(glued, form=glued.form.scaled(2))
    yield "action-shear", dataclasses.replace(
        glued, actions=(_shifted(IntMatrix.identity(n2), [(0, 1, 1)]),))
    yield "action-square", dataclasses.replace(
        glued, actions=tuple(r * r for r in acts))
    if len(acts) >= 2:
        yield "action-product", dataclasses.replace(
            glued, actions=(acts[0] * acts[1],))
    yield "overlattice-half", dataclasses.replace(
        glued, overlattice=glued.overlattice.scaled(Fraction(1, 2)))
    yield "overlattice-identity", dataclasses.replace(
        glued, overlattice=RatMatrix.identity(n2))
    yield "graph-triple", dataclasses.replace(
        glued, graph=tuple(tuple(3 * c for c in gamma) for gamma in glued.graph))
    yield "overlattice-zero", dataclasses.replace(
        glued, overlattice=glued.overlattice.scaled(0))
    yield "actions-empty", dataclasses.replace(glued, actions=())


# check verdicts in report order (1 = passed) and the first failure.  A
# shear or a product of two reflections is not a pseudoreflection, so
# x-action-reflections fails on it; the tripled graph of a divisor prime to 3
# still spans the overlattice, so only (2,) and (2, 3) fail overlattice-index.
# A zero overlattice fails every check that needs its inverse.  With no
# stored actions every action check holds vacuously, so only the count of
# one action per factor generator in x-action-reflections fails.
PINNED_VERDICTS = {
    ((1,), "form-pair"): ("0110001111", "form-integral"),
    ((1,), "form-entry"): ("0000001111", "form-integral"),
    ((1,), "form-double"): ("0101111111", "form-integral"),
    ((1,), "action-shear"): ("1111100001", "action-preserves-form"),
    ((1,), "action-square"): ("1111111111", None),
    ((1,), "overlattice-half"): ("0111111110", "form-integral"),
    ((1,), "overlattice-identity"): ("0111110010", "form-integral"),
    ((1,), "graph-triple"): ("1111111111", None),
    ((2,), "form-pair"): ("0110001111", "form-integral"),
    ((2,), "form-entry"): ("0000001111", "form-integral"),
    ((2,), "form-double"): ("0101111111", "form-integral"),
    ((2,), "action-shear"): ("1111100101", "action-preserves-form"),
    ((2,), "action-square"): ("1111111111", None),
    ((2,), "action-product"): ("1111111101", "x-action-reflections"),
    ((2,), "overlattice-half"): ("0111111110", "form-integral"),
    ((2,), "overlattice-identity"): ("0110010010", "form-integral"),
    ((2,), "graph-triple"): ("1111111110", "overlattice-index"),
    ((1, 1), "form-pair"): ("0110001111", "form-integral"),
    ((1, 1), "form-entry"): ("0000001111", "form-integral"),
    ((1, 1), "form-double"): ("0101111111", "form-integral"),
    ((1, 1), "action-shear"): ("1111100001", "action-preserves-form"),
    ((1, 1), "action-square"): ("1111111111", None),
    ((1, 1), "action-product"): ("1111111101", "x-action-reflections"),
    ((1, 1), "overlattice-half"): ("0111111110", "form-integral"),
    ((1, 1), "overlattice-identity"): ("0111110010", "form-integral"),
    ((1, 1), "graph-triple"): ("1111111111", None),
    ((2, 3), "form-pair"): ("0110001111", "form-integral"),
    ((2, 3), "form-entry"): ("0000001111", "form-integral"),
    ((2, 3), "form-double"): ("0101111111", "form-integral"),
    ((2, 3), "action-shear"): ("1111100101", "action-preserves-form"),
    ((2, 3), "action-square"): ("1111111111", None),
    ((2, 3), "action-product"): ("1111111101", "x-action-reflections"),
    ((2, 3), "overlattice-half"): ("0111111110", "form-integral"),
    ((2, 3), "overlattice-identity"): ("0110010010", "form-integral"),
    ((2, 3), "graph-triple"): ("1111111110", "overlattice-index"),
    ((1,), "overlattice-zero"): ("0110010010", "form-integral"),
    ((2,), "overlattice-zero"): ("0110010010", "form-integral"),
    ((1, 1), "overlattice-zero"): ("0110010010", "form-integral"),
    ((2, 3), "overlattice-zero"): ("0110010010", "form-integral"),
    ((1,), "actions-empty"): ("1111111101", "x-action-reflections"),
    ((2,), "actions-empty"): ("1111111101", "x-action-reflections"),
    ((1, 1), "actions-empty"): ("1111111101", "x-action-reflections"),
    ((2, 3), "actions-empty"): ("1111111101", "x-action-reflections"),
}


def test_corrupted_glue_verdicts_pinned():
    seen = {}
    for factors, y_dim in GRID:
        for name, bad in _corrupted(build_standard(factors, y_dim)):
            report = verify_glued(bad)
            bits = "".join(str(int(ok)) for _, ok in report.checks)
            seen[factors, name] = (bits, report.first_failure)
    assert seen == PINNED_VERDICTS


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


def test_glued_json_rejects_nonpositive_denominators():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    for key in ("overlattice_den", "graph_den"):
        for value in ("0", "-2"):
            with pytest.raises(ValueError, match="must be positive"):
                glued_from_json(json.dumps({**data, key: value}))


def test_glued_json_rejects_tampered_form():
    data = json.loads(glued_to_json(build_standard([2], 1)))
    data["form"][0][1] = str(int(data["form"][0][1]) + 1)
    with pytest.raises(InvalidGlue, match="form-integral"):
        glued_from_json(json.dumps(data))


def test_glued_json_rejects_singular_overlattice():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    data["overlattice_num"] = [["0"] * len(row) for row in data["overlattice_num"]]
    with pytest.raises(InvalidGlue, match="form-integral"):
        glued_from_json(json.dumps(data))


def test_glued_json_rejects_empty_actions():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    data["actions"] = []
    with pytest.raises(InvalidGlue, match="x-action-reflections"):
        glued_from_json(json.dumps(data))


def test_glued_json_uses_decimal_strings():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    assert set(data) >= {"factors", "y_dim", "overlattice_num",
                         "overlattice_den", "form", "actions"}
    assert all(isinstance(x, str) for row in data["form"] for x in row)
    assert all(isinstance(x, str) for row in data["overlattice_num"] for x in row)
    assert isinstance(data["overlattice_den"], str)
