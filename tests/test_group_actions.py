"""Closure, invariance, pseudoreflections, averaging, and kernel actions."""

import hashlib
import time
from fractions import Fraction

import pytest

from ppavlab.exact_linalg import IntMatrix, rank_over_field
from ppavlab.group_actions import (
    ActionReport,
    CapExceeded,
    DimensionMismatch,
    MatrixGroup,
    NotInvariant,
    _close,
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
    OrderElem,
    OrderMatrix,
    RATIONAL,
    Torus,
    rational_rep,
)


# example_c's generators as written down over Z[i]
C_GENS = (
    OrderMatrix.from_pairs(GAUSSIAN, [[(-1, 0), (1, 1)], [(0, 0), (1, 0)]]),
    OrderMatrix.from_pairs(GAUSSIAN, [[(0, -1), (-1, 1)], [(0, 0), (0, 1)]]),
    OrderMatrix.from_pairs(GAUSSIAN, [[(-1, 0), (0, 0)], [(-1, 1), (1, 0)]]),
)


def swap_group():
    m = OrderMatrix.from_int_rows(RATIONAL, [[0, 1], [1, 0]])
    return closure([m])


def neg_group(g=2):
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
    assert grp.elements[0] == IntMatrix.identity(4)
    # over Z an O-matrix A acts on the 2g-lattice as diag(A, A)
    assert grp.elements[1] == IntMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert grp.generators == (grp.elements[1],)


def test_closure_deterministic():
    a = closure(C_GENS)
    b = closure(C_GENS)
    assert a.generators == tuple(rational_rep(m) for m in C_GENS)
    assert a.elements == b.elements == example_c()[0].elements


def test_closure_idempotent():
    grp = example_b(2)[0]
    again = _close(grp.torus, grp.elements, cap=10 ** 6)
    assert again.order == grp.order
    assert set(again.elements) == set(grp.elements)


def test_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([OrderMatrix.from_int_rows(RATIONAL, [[2, 0], [0, 1]])])
    with pytest.raises(DimensionMismatch):
        closure([OrderMatrix.identity(RATIONAL, 2),
                 OrderMatrix.identity(RATIONAL, 3)])


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(C_GENS, cap=5)


def test_closure_of_infinite_group_fails_fast():
    # [[-1, 0], [i, 1]] has order 2, but with example_c's first two
    # generators it generates an infinite group; two of its elements agree
    # mod 3 within a few levels of the breadth-first search
    gens = list(C_GENS)
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


def _named_group(key):
    kind, *args = key
    return {"a": example_a, "b": example_b, "c": example_c}[kind](*args)[0]


# sha256 of group_to_json, recorded from the closure over O-matrices that the
# integer closure replaced: the breadth-first element order and the JSON
# format must not move
GROUP_JSON_SHA256 = {
    ("a", 1, 2): "e11d1105e014c319fe91223148624bc8c0408511d3b83f8911b7584bd6efa440",
    ("a", 1, 3): "121449b1b615be535838628bbb5e5097d425c39d7235962a539b679d5da6e315",
    ("a", 1, 4): "df029b041719c9130d7ad08fb3d8be61f289f7403bd0d1d53613c396d2baffc2",
    ("a", 1, 6): "35f412a15c55dcedc2b61547b82de1ce4a2b6fb016213056bd24f2e8a60a5020",
    ("a", 2, 2): "acb9ac46eee8ce9696d6baa0a09319e61382673e7610193b9e76eabf97dc2b22",
    ("a", 2, 3): "adae4fc2cd651698322929346bd2f0a533901e682e47ae3e0e19843b38f36cd3",
    ("a", 2, 4): "9b41270ebfbdc71ba60e0cb8586509248038a3842db84598f93fd352c6cf085a",
    ("a", 2, 6): "d5154a913c02329cf87c808f6fd121062e97d25a774a025f9c5d2a5628be3e6c",
    ("a", 3, 2): "e526368e7952466e4595f4b8c2985187a5d49694c2ba071d541870ae2d881096",
    ("a", 3, 3): "1f1032751ef46e54b944462cc258f218a319f7122e9fa36ed63738e27b17cd7f",
    ("a", 3, 4): "45cebed3c551e5a410b0dd94ba9b54255d32d2752c0fbc113d2163f812a62714",
    ("a", 3, 6): "5fba6ec063fbc5330fa01a4ce944bfd47b2b8c0fa30e8b318485f1fd83033f6e",
    ("b", 1): "e11d1105e014c319fe91223148624bc8c0408511d3b83f8911b7584bd6efa440",
    ("b", 2): "345d968cb06d38d4470708305df3eabdfc449500dab1034f6245e8969b265cd4",
    ("b", 3): "448f867ba72b8baff68084ba6c5efd8f27f0c8eb7eb89ecb16c5f90e026b46ae",
    ("b", 4): "adbe1f49a0ec6aa6025220855ca5dcf83c87b6c8a091828b3856e1ac0c07b5c3",
    ("c",): "3fece4c5ac37a1b8ae18c4fbd8b1e192984f6d5cdd95c73589f748989bd9f3d6",
}


@pytest.mark.parametrize("key", list(GROUP_JSON_SHA256), ids=str)
def test_group_json_digest_pinned(key):
    text = group_to_json(_named_group(key))
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_JSON_SHA256[key]


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


def proper_group():
    # diag(-1, 1, 1) is the only reflection of <diag(-1, 1, 1), -I>, order 4
    d = OrderMatrix.from_int_rows(RATIONAL, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return closure([d, OrderMatrix.scalar(RATIONAL, 3, OrderElem(-1, 0))])


def test_pseudoreflections_generate_proper_subgroup():
    grp = proper_group()
    assert grp.order == 4
    assert pseudoreflection_generated(grp) == (False, 1)


# every unit order of example_a, the registry's reflection-generation groups,
# and groups with no reflections or with reflections that miss elements
ORACLE_GROUPS = {
    **{key: (lambda key=key: _named_group(key))
       for key in [("a", 2, m) for m in (2, 3, 4, 6)] + [("a", 3, 3)]
       + [("b", g) for g in (1, 2, 3, 4)] + [("c",)]},
    "negation": neg_group,
    "trivial": lambda: trivial_group(GAUSSIAN, 2),
    "proper": proper_group,
}


@pytest.mark.parametrize("key", list(ORACLE_GROUPS), ids=str)
def test_pseudoreflection_generated_matches_closing_all_reflections(key):
    # the greedy subgroup closure gives the verdict of closing every reflection
    grp = ORACLE_GROUPS[key]()
    ident = IntMatrix.identity(grp.torus.lattice_rank)
    refl = tuple(e for e in grp.elements if rank_over_field(e - ident) == 2)
    if refl:
        generated = _close(grp.torus, refl, cap=grp.order).order == grp.order
    else:
        generated = grp.order == 1
    assert pseudoreflection_generated(grp) == (generated, len(refl))


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
            for rho in grp.elements:
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
        for rho in grp.elements
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
        assert back.elements == grp.elements


def test_group_json_roundtrip_regenerates():
    back = group_from_json(group_to_json(example_c()[0]))
    assert _close(back.torus, back.generators, cap=10 ** 6).order == 16


def _s3_json(pick):
    grp = example_b(2)[0]
    t1, t2 = grp.generators[:2]
    ident = IntMatrix.identity(4)
    elems = tuple(pick(ident, t1, t1 * t2))
    return group_to_json(MatrixGroup(grp.torus, elems, elems))


@pytest.mark.parametrize("pick", [
    lambda ident, transposition, three_cycle: (ident, transposition, three_cycle),
    lambda ident, transposition, three_cycle: (ident, transposition, transposition),
], ids=["not-closed", "repeated"])
def test_group_json_rejects_non_group(pick):
    with pytest.raises(ValueError):
        group_from_json(_s3_json(pick))
