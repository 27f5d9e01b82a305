"""Closure, invariance, pseudoreflections, averaging, and kernel actions."""

import time
from fractions import Fraction

import pytest

from ppavlab.exact_linalg import IntMatrix
from ppavlab.group_actions import (
    ActionReport,
    CapExceeded,
    DimensionMismatch,
    MatrixGroup,
    NotInvariant,
    action_on_kernel,
    action_report,
    average_pullback,
    closure,
    example_a,
    example_b,
    example_c,
    fixed_dim,
    fixed_sublattice,
    group_from_json,
    group_to_json,
    invariant_form,
    ns_fixed,
    pseudoreflection_generated,
)
from ppavlab.polarizations import (
    PolarizedTorus,
    kernel_group,
    polarization_type,
    qmodz,
    scale,
    split_form,
    theta_g,
    weil_pairing,
    xi_g,
)
from ppavlab.tori import (
    BadOrder,
    GAUSSIAN,
    OrderMatrix,
    RATIONAL,
    Torus,
    rational_rep,
)


def swap_group():
    m = OrderMatrix.from_int_rows(RATIONAL, [[0, 1], [1, 0]])
    return closure([m])


def neg_group(g=2):
    from ppavlab.tori import OrderElem
    return closure([OrderMatrix.scalar(RATIONAL, g, OrderElem(-1, 0))])


def trivial_group(order=RATIONAL, g=2):
    return closure([OrderMatrix.identity(order, g)])


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# -- closure -------------------------------------------------------------------


def test_closure_swap():
    grp = swap_group()
    assert grp.order == 2
    assert grp.elements[0] == OrderMatrix.identity(RATIONAL, 2)


def test_closure_deterministic():
    a = closure(example_c()[0].generators)
    b = closure(example_c()[0].generators)
    assert [e.flat_key() for e in a.elements] == [e.flat_key() for e in b.elements]


def test_closure_idempotent():
    grp = example_b(2)[0]
    again = closure(grp.elements)
    assert again.order == grp.order
    assert {e.flat_key() for e in again.elements} == {e.flat_key() for e in grp.elements}


def test_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([OrderMatrix.from_int_rows(RATIONAL, [[2, 0], [0, 1]])])
    with pytest.raises(DimensionMismatch):
        closure([OrderMatrix.identity(RATIONAL, 2),
                 OrderMatrix.identity(RATIONAL, 3)])


def test_closure_cap():
    gens = example_c()[0].generators
    with pytest.raises(CapExceeded):
        closure(gens, cap=5)


def test_closure_of_infinite_group_fails_fast():
    # [[-1, 0], [i, 1]] has order 2, but with example_c's first two
    # generators it generates an infinite group; two of its elements agree
    # mod 3 within a few levels of the breadth-first search
    gens = list(example_c()[0].generators)
    gens[2] = OrderMatrix.from_pairs(GAUSSIAN, [[(-1, 0), (0, 0)], [(0, 1), (1, 0)]])
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="mod 3"):
        closure(gens)
    assert time.perf_counter() - start < 1.0


# -- example orders --------------------------------------------------------------


def test_example_a_orders():
    for g in (1, 2, 3):
        for m in (2, 3, 4):
            grp, pol = example_a(g, m)
            assert grp.order == m ** g * factorial(g)
            assert pol.torus == grp.torus
    assert example_a(2, 6)[0].order == 72


def test_example_a_rejects_bad_unit_order():
    with pytest.raises(BadOrder):
        example_a(2, 5)


def test_example_b_orders():
    for g in (1, 2, 3, 4):
        grp, pol = example_b(g)
        assert grp.order == factorial(g + 1)
        assert pol.form == xi_g(g).form


def test_example_c_order():
    grp, pol = example_c()
    assert grp.order == 16
    assert grp.torus == Torus(GAUSSIAN, 2)


def test_example_c_polarization_frozen():
    _, pol = example_c()
    assert pol.form == IntMatrix.from_rows([
        [0, -1, 2, -1],
        [1, 0, -1, 2],
        [-2, 1, 0, -1],
        [1, -2, 1, 0]])
    assert polarization_type(pol) == (1, 2)


# -- invariance ------------------------------------------------------------------


def test_examples_preserve_their_polarizations():
    for grp, pol in (example_a(2, 2), example_a(3, 3), example_b(2),
                     example_b(3), example_c()):
        assert invariant_form(grp, pol)


def test_swap_breaks_unequal_weights():
    pol = PolarizedTorus(Torus(RATIONAL, 2),
                         split_form(IntMatrix.from_rows([[1, 0], [0, 2]])))
    assert not invariant_form(swap_group(), pol)
    assert invariant_form(swap_group(), theta_g(2))


def test_invariant_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        invariant_form(example_b(2)[0], theta_g(3))


# -- pseudoreflections -------------------------------------------------------------


def test_pseudoreflections_example_a():
    generated, count = pseudoreflection_generated(example_a(2, 2)[0])
    assert generated and count == 4


def test_pseudoreflections_example_b():
    generated, count = pseudoreflection_generated(example_b(2)[0])
    assert generated and count == 3


def test_pseudoreflections_example_c():
    generated, count = pseudoreflection_generated(example_c()[0])
    assert generated and count == 6


def test_negation_has_no_pseudoreflections():
    assert pseudoreflection_generated(neg_group()) == (False, 0)
    assert pseudoreflection_generated(trivial_group()) == (True, 0)


# -- fixed sublattices ---------------------------------------------------------------


def test_fixed_dim_examples():
    assert fixed_dim(example_b(2)[0]) == 0
    assert fixed_dim(example_c()[0]) == 0
    assert fixed_dim(trivial_group()) == 2
    assert fixed_dim(swap_group()) == 1


def test_fixed_sublattice_of_swap_is_diagonal():
    basis = fixed_sublattice(swap_group())
    assert basis.cols == 2
    for k in range(basis.cols):
        col = [basis[i, k] for i in range(basis.rows)]
        assert col in ([1, 1, 0, 0], [0, 0, 1, 1])


# -- invariant compatible forms ---------------------------------------------------------


def test_ns_fixed_example_a():
    rank, forms = ns_fixed(example_a(2, 2)[0])
    assert rank == 1
    assert forms[0] == theta_g(2).form


def test_ns_fixed_example_b():
    for g in (2, 3):
        rank, forms = ns_fixed(example_b(g)[0])
        assert rank == 1
        assert forms[0] == xi_g(g).form


def test_ns_fixed_example_c():
    rank, forms = ns_fixed(example_c()[0])
    assert rank == 1
    assert forms[0] == example_c()[1].form


def test_ns_fixed_trivial_groups():
    rank, forms = ns_fixed(trivial_group(RATIONAL, 2))
    assert rank == 3
    rank, forms = ns_fixed(trivial_group(GAUSSIAN, 2))
    assert rank == 4
    for f in forms:
        j = Torus(GAUSSIAN, 2).complex_structure()
        assert j.transpose() * f * j == f


def test_ns_fixed_forms_are_invariant():
    for grp, _ in (example_a(2, 3), example_b(3), example_c()):
        _, forms = ns_fixed(grp)
        for f in forms:
            for e in grp.elements:
                rho = rational_rep(e)
                assert rho.transpose() * f * rho == f


# -- averaged pullbacks -------------------------------------------------------------


def test_average_pullback_trivial():
    pol = theta_g(2)
    prim, mult = average_pullback(trivial_group(), pol)
    assert mult == 1
    assert prim.form == pol.form


def test_average_pullback_invariant_input():
    # every element preserves the form, so the sum is order * form
    grp, pol = example_b(2)
    prim, mult = average_pullback(grp, pol)
    assert mult == 6
    assert prim.form == pol.form


def test_average_pullback_example_c():
    grp, pol = example_c()
    prim, mult = average_pullback(grp, theta_g(2, GAUSSIAN))
    assert mult == 16
    assert prim.form == pol.form


def test_average_pullback_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        average_pullback(example_b(2)[0], theta_g(2, GAUSSIAN))


# -- kernel actions ----------------------------------------------------------------


def test_kernel_action_example_b_trivial():
    grp, pol = example_b(2)
    assert action_on_kernel(grp, kernel_group(pol))


def test_kernel_action_scaled_theta_moves():
    for m in (2, 3):
        grp, pol = example_a(2, m)
        assert not action_on_kernel(grp, kernel_group(scale(pol, m)))


def test_kernel_action_example_c():
    # every kernel point of the averaged polarization is fixed; cross-check
    # the generator-level answer against the full element-by-point sweep
    grp, pol = example_c()
    k = kernel_group(pol)
    assert k.order == 4
    h = Fraction(1, 2)
    assert k.contains((h, 0, h, 0))
    assert k.contains((0, h, 0, h))
    assert weil_pairing(k, (h, 0, h, 0), (0, h, 0, h)) in (Fraction(1, 2),)
    swept = all(
        qmodz(sum(Fraction(rho[i, j]) * x[j] for j in range(4)) - x[i]) == 0
        for e in grp.elements
        for rho in (rational_rep(e),)
        for x in k.elements()
        for i in range(4))
    assert action_on_kernel(grp, k) is True
    assert swept is True


def test_kernel_action_requires_invariance():
    grp, _ = example_a(2, 2)
    with pytest.raises(NotInvariant):
        action_on_kernel(grp, kernel_group(xi_g(2)))


# -- reports and serialization ---------------------------------------------------------


def test_action_report_example_b():
    grp, pol = example_b(2)
    rep = action_report(grp, pol)
    assert rep == ActionReport(
        order=6,
        pseudoreflections=3,
        generated_by_pseudoreflections=True,
        fixed_dim=0,
        ns_rank=1,
        ns_generator=xi_g(2).form,
        kernel_action_trivial=True)


def test_group_json_roundtrip():
    for grp in (example_b(2)[0], example_c()[0]):
        back = group_from_json(group_to_json(grp))
        assert back.torus == grp.torus
        assert back.order == grp.order
        assert ({e.flat_key() for e in back.elements}
                == {e.flat_key() for e in grp.elements})


def test_group_json_roundtrip_regenerates():
    back = group_from_json(group_to_json(example_c()[0]))
    assert closure(back.generators).order == 16


def _s3_json(pick):
    grp = example_b(2)[0]
    t1, t2 = grp.generators[:2]
    ident = OrderMatrix.identity(RATIONAL, 2)
    elems = tuple(pick(ident, t1, t1 * t2))
    return group_to_json(MatrixGroup(grp.torus, elems, elems))


@pytest.mark.parametrize("pick", [
    lambda ident, transposition, three_cycle: (ident, transposition, three_cycle),
    lambda ident, transposition, three_cycle: (ident, transposition, transposition),
], ids=["not-closed", "repeated"])
def test_group_json_rejects_non_group(pick):
    with pytest.raises(ValueError):
        group_from_json(_s3_json(pick))
