"""Closure, invariance, pseudoreflections, averaging, and kernel actions."""

import hashlib
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    kernel_elements,
    ns_fixed_reference,
    pseudoreflection_generated_reference,
    rank_over_field,
    weil_pairing,
)
from ppavlab.exact_linalg import IntMatrix, kernel_basis
from ppavlab.group_actions import (
    EXAMPLE_ORDER_LIMIT,
    CapExceeded,
    DimensionMismatch,
    MatrixGroup,
    NotInvariant,
    _UNIT_OF_ORDER,
    _close,
    action_on_kernel,
    average_pullback,
    closure,
    example_a,
    example_b,
    example_c,
    fixed_sublattice,
    group_from_json,
    group_to_json,
    invariant_form,
    ns_fixed,
    pseudoreflection_generated,
    reflection_rank,
)
from ppavlab.polarizations import (
    PolarizedTorus,
    kernel_group,
    polarization_type,
    scale,
    split_form,
    theta_g,
    xi_g,
)
from ppavlab.tori import (
    BadOrder,
    EISENSTEIN,
    GAUSSIAN,
    ONE,
    OrderElem,
    OrderMatrix,
    RATIONAL,
    Torus,
    omul,
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
    return closure([OrderMatrix.scalar(order, g, ONE)])


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
        closure([OrderMatrix.scalar(RATIONAL, 2, ONE),
                 OrderMatrix.scalar(RATIONAL, 3, ONE)])


def test_closure_cap():
    with pytest.raises(CapExceeded, match="more than 5 elements"):
        _close(Torus(GAUSSIAN, 2), tuple(rational_rep(m) for m in C_GENS), cap=5)


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


def _dense_close(torus, actions, cap):
    """Reference closure: dense IntMatrix products, the same level order and mod-3 test."""
    g, seen, residues, elements = torus.g, set(), set(), []
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
                    # O-entry (i, j) is a + b*w with a at (i, j) and b at (g + i, j)
                    fresh[p] = [c for i in range(g) for j in range(g)
                                for c in (p[i, j], p[g + i, j])]
        level = sorted(fresh, key=fresh.get)
    return tuple(elements)


def _outcome(close, torus, actions, cap):
    """The element tuple, or the CapExceeded message."""
    try:
        result = close(torus, actions, cap)
    except CapExceeded as exc:
        return str(exc)
    return result.elements if isinstance(result, MatrixGroup) else result


UNITS = {
    RATIONAL: ((1, 0), (-1, 0)),
    GAUSSIAN: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    EISENSTEIN: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
}


@st.composite
def monomial_generators(draw):
    """1-3 monomial O-matrices with unit entries (signed permutations over Z),
    sometimes with a transvection that makes the group infinite."""
    order = draw(st.sampled_from(list(UNITS)))
    g = draw(st.sampled_from([3, 2, 1]))
    gens = []
    for _ in range(draw(st.sampled_from([2, 3, 1]))):
        perm = draw(st.permutations(range(g)))
        units = [draw(st.sampled_from(UNITS[order])) for _ in range(g)]
        gens.append(OrderMatrix.from_pairs(
            order, [[units[i] if perm[i] == j else (0, 0) for j in range(g)]
                    for i in range(g)]))
    if g > 1 and draw(st.booleans()):
        gens.append(OrderMatrix.from_int_rows(
            order, [[int(i == j or (i, j) == (0, 1)) for j in range(g)] for i in range(g)]))
    return Torus(order, g), tuple(rational_rep(m) for m in gens)


@settings(max_examples=60, deadline=None)
@given(monomial_generators(), st.sampled_from([2000, 40, 7]))
def test_close_matches_dense_reference(case, cap):
    # the largest finite group drawn has 6^3 * 3! = 1296 elements; a cap of
    # 2000 makes a missed mod-3 test fail on the message instead of hanging
    torus, actions = case
    assert _outcome(_close, torus, actions, cap) == _outcome(_dense_close, torus, actions, cap)


@pytest.mark.parametrize("key", [("a", 2, 6), ("a", 3, 3), ("a", 3, 4), ("b", 4), ("c",)],
                         ids=str)
def test_close_matches_dense_reference_on_examples(key):
    grp = _named_group(key)
    for cap in (grp.order, grp.order - 1):
        assert (_outcome(_close, grp.torus, grp.generators, cap)
                == _outcome(_dense_close, grp.torus, grp.generators, cap))


@pytest.mark.parametrize("key", [("a", 2, 3), ("b", 3), ("c",)], ids=str)
def test_close_matches_dense_reference_on_all_elements(key):
    # group_from_json closes the full element list: dense generators
    grp = _named_group(key)
    for cap in (grp.order, grp.order - 1):
        assert (_outcome(_close, grp.torus, grp.elements, cap)
                == _outcome(_dense_close, grp.torus, grp.elements, cap))


# -- example orders --------------------------------------------------------------


def test_example_a_orders():
    for g in (1, 2, 3):
        for m in (2, 3, 4):
            grp, pol = example_a(g, m)
            assert grp.order == m ** g * factorial(g)
            assert pol.torus == grp.torus
    assert example_a(2, 6)[0].order == 72


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_unit_table_entry_has_exact_order_m(m):
    order, zeta = _UNIT_OF_ORDER[m]
    powers = list(itertools.accumulate([zeta] * m, lambda p, z: omul(order, p, z)))
    assert powers.index(ONE) == m - 1
    grp, _ = example_a(1, m)
    assert grp.torus == Torus(order, 1)
    assert grp.generators[0] == rational_rep(OrderMatrix.scalar(order, 1, zeta))


def test_example_a_rejects_bad_unit_order():
    with pytest.raises(BadOrder):
        example_a(2, 5)


def test_example_b_orders():
    for g in (1, 2, 3, 4):
        grp, pol = example_b(g)
        assert grp.order == factorial(g + 1)
        assert pol.form == xi_g(g).form


@pytest.mark.parametrize("g", [0, -1])
def test_example_b_rejects_non_positive_genus(g):
    # used to fail deep inside with "matrix must be square"
    with pytest.raises(ValueError, match="g must be >= 1"):
        example_b(g)


@pytest.mark.parametrize("example, args, cached", [
    (example_a, ("2", 2), None), (example_a, (2.0, 2), (2, 2)), (example_a, (True, 2), (1, 2)),
    (example_a, (2, 2.0), (2, 2)), (example_a, (2, "2"), None), (example_a, (2, True), None),
    (example_b, ("2",), None), (example_b, (2.0,), (2,)), (example_b, (True,), (1,)),
], ids=["a-g-str", "a-g-float", "a-g-bool", "a-m-float", "a-m-str", "a-m-bool",
        "b-g-str", "b-g-float", "b-g-bool"])
def test_examples_refuse_sizes_that_are_not_ints(example, args, cached):
    # example_a("2", 2) raised TypeError and example_a(2, 2.0) closed a group
    # of order 8; an equal int call already in the cache must not answer it
    if cached is not None:
        example(*cached)
    with pytest.raises(ValueError, match=r"^(g must be >= 1|unit order m must be one of)"):
        example(*args)


@pytest.mark.parametrize("example, args", [
    (example_a, (5, 4)), (example_a, (6, 3)), (example_a, (10 ** 9, 2)),
    (example_b, (8,)), (example_b, (10 ** 9,)),
], ids=["a-5-4", "a-6-3", "a-huge", "b-8", "b-huge"])
def test_oversized_examples_fail_fast(example, args):
    # the smallest refused sizes close 122,880 and 362,880 elements
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"EXAMPLE_ORDER_LIMIT = {EXAMPLE_ORDER_LIMIT}"):
        example(*args)
    assert time.perf_counter() - start < 0.1


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


def test_pseudoreflection_generated_stops_on_a_non_group():
    # a transvection is a reflection of infinite order: the subgroup it
    # generates outgrows the two listed elements
    t = rational_rep(OrderMatrix.from_int_rows(RATIONAL, [[1, 1], [0, 1]]))
    hand_built = MatrixGroup(Torus(RATIONAL, 2), (t,), (IntMatrix.identity(4), t))
    with pytest.raises(CapExceeded):
        pseudoreflection_generated(hand_built)


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


def _preserved_by_every_element(group, p):
    return all(e.transpose() * p.form * e == p.form for e in group.elements)


def _forms_on(group):
    """theta_g, xi_g and the group's averaged theta_g (invariant) on its torus."""
    order, g = group.torus.order, group.torus.g
    return [theta_g(g, order), xi_g(g, order), average_pullback(group, theta_g(g, order))[0]]


def _form_breaking_group():
    # -1 preserves every form; A = [[1, 1], [0, -1]] has order 2 and A^t A != 1
    a = OrderMatrix.from_int_rows(RATIONAL, [[1, 1], [0, -1]])
    return closure([OrderMatrix.scalar(RATIONAL, 2, OrderElem(-1, 0)), a])


# a loaded group lists every element as a generator
INVARIANCE_GROUPS = {
    **ORACLE_GROUPS,
    "json-c": lambda: group_from_json(group_to_json(example_c()[0])),
    "json-a-2-4": lambda: group_from_json(group_to_json(example_a(2, 4)[0])),
    "one-breaking": _form_breaking_group,
}


@pytest.mark.parametrize("key", list(INVARIANCE_GROUPS), ids=str)
def test_invariant_form_on_generators_matches_every_element(key):
    # a group preserves a form exactly when its generators do
    grp = INVARIANCE_GROUPS[key]()
    verdicts = []
    for p in _forms_on(grp):
        verdicts.append(invariant_form(grp, p))
        assert verdicts[-1] == _preserved_by_every_element(grp, p)
    assert verdicts[-1]  # the averaged form is invariant
    if key == "one-breaking":
        assert verdicts[0] is False


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


@pytest.mark.parametrize("key", list(ORACLE_GROUPS), ids=str)
def test_reflection_rank_matches_rank_over_field(key):
    grp = ORACLE_GROUPS[key]()
    ident = IntMatrix.identity(grp.torus.lattice_rank)
    for e in grp.elements:
        assert reflection_rank(e) == min(rank_over_field(e - ident), 3)


@settings(max_examples=200)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_reflection_rank_of_any_square_matrix(rows):
    m = IntMatrix.from_rows(rows)
    assert reflection_rank(m) == min(rank_over_field(m - IntMatrix.identity(m.rows)), 3)


@settings(max_examples=40, deadline=None)
@given(monomial_generators())
def test_pseudoreflection_generated_matches_closing_all_reflections_random(case):
    torus, actions = case
    try:
        grp = _close(torus, actions, cap=10 ** 6)
    except CapExceeded:
        return
    ident = IntMatrix.identity(torus.lattice_rank)
    refl = tuple(e for e in grp.elements if rank_over_field(e - ident) == 2)
    if refl:
        generated = len(_dense_close(torus, refl, grp.order)) == grp.order
    else:
        generated = grp.order == 1
    assert pseudoreflection_generated(grp) == (generated, len(refl))


def _b3_reflections():
    """The nine reflections of W(B_3), the signed permutations of Z^3."""
    out = []
    for i in range(3):
        out.append([[-1 if (r, c) == (i, i) else int(r == c) for c in range(3)]
                    for r in range(3)])
    for i, j in itertools.combinations(range(3), 2):
        for sign in (1, -1):
            rows = [[int(r == c) for c in range(3)] for r in range(3)]
            rows[i][i] = rows[j][j] = 0
            rows[i][j] = rows[j][i] = sign
            out.append(rows)
    return [OrderMatrix.from_int_rows(RATIONAL, rows) for rows in out]


B3_REFLECTIONS = _b3_reflections()


@pytest.mark.parametrize("key", list(ORACLE_GROUPS), ids=str)
def test_pseudoreflection_generated_matches_the_full_level_loop(key):
    # ORACLE_GROUPS holds every example group and neg_group
    grp = ORACLE_GROUPS[key]()
    assert pseudoreflection_generated(grp) == pseudoreflection_generated_reference(grp)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(range(len(B3_REFLECTIONS))), min_size=1, max_size=5,
                unique=True), st.booleans())
def test_pseudoreflection_generated_matches_the_full_level_loop_on_b3(picked, negate):
    # a subgroup of W(B_3) from some of its reflections, with -1 added or not:
    # <s, -1> is not generated by its reflections
    gens = [B3_REFLECTIONS[i] for i in picked]
    if negate:
        gens.append(OrderMatrix.scalar(RATIONAL, 3, OrderElem(-1, 0)))
    grp = closure(gens)
    assert pseudoreflection_generated(grp) == pseudoreflection_generated_reference(grp)


# -- fixed sublattices ---------------------------------------------------------------


def _fixed(grp):
    return fixed_sublattice(grp.torus.lattice_rank, grp.generators)


def test_fixed_sublattice_examples():
    assert _fixed(example_b(2)[0]).cols == 0
    assert _fixed(example_c()[0]).cols == 0
    assert _fixed(trivial_group()) == IntMatrix.identity(4)
    assert _fixed(swap_group()).cols == 2
    # no actions fix everything
    assert fixed_sublattice(4, ()) == IntMatrix.identity(4)


def test_fixed_sublattice_of_swap_is_diagonal():
    basis = _fixed(swap_group())
    assert basis.cols == 2
    for k in range(basis.cols):
        col = [basis[i, k] for i in range(basis.rows)]
        assert col in ([1, 1, 0, 0], [0, 0, 1, 1])


def fixed_sublattice_unreduced(n, actions):
    """The kernel of the whole stacked (r - 1), with no row reduction first."""
    return kernel_basis(IntMatrix.from_rows(
        [row for r in actions for row in (r - IntMatrix.identity(n)).entries], cols=n))


@st.composite
def action_stacks(draw):
    """Up to four n x n matrices r whose r - 1 lie in one low-rank row space.

    Each r - 1 has rows that are integer combinations of the same few base
    rows, so the stack is tall and of low rank and the fixed lattice is
    often non-trivial; the r need not be invertible.
    """
    n = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=0, max_size=n))
    coeff = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    actions = []
    for _ in range(draw(st.integers(0, 4))):
        rows = [[sum(c * b[j] for c, b in zip(draw(coeff), base)) + (i == j)
                 for j in range(n)] for i in range(n)]
        actions.append(IntMatrix.from_rows(rows, cols=n))
    return n, tuple(actions)


@settings(max_examples=300, deadline=None)
@given(action_stacks())
def test_fixed_sublattice_matches_unreduced_stack(case):
    n, actions = case
    assert fixed_sublattice(n, actions) == fixed_sublattice_unreduced(n, actions)


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


def _ns_fixed_by_blocks(group):
    """The Z-block route: B symmetric with A^t B A = B on each generator's
    g x g block A, equations read off the upper triangle with the diagonal."""
    g = group.torus.g
    basis = []
    for i in range(g):
        for j in range(i, g):
            basis.append(IntMatrix.from_rows(
                [[int((r, c) in {(i, j), (j, i)}) for c in range(g)] for r in range(g)]))
    rows = []
    for rho in group.generators:
        a = rho.block(0, g, 0, g)
        images = [a.transpose() * b * a - b for b in basis]
        rows.extend([e[i, j] for e in images] for i in range(g) for j in range(i, g))
    sols = kernel_basis(IntMatrix.from_rows(rows, cols=len(basis)))
    forms = []
    for col in sols.columns():
        block = IntMatrix.zeros(g, g)
        for b, c in zip(basis, col):
            block = block + b.scaled(c)
        forms.append(split_form(block))
    return forms


@pytest.mark.parametrize("group", [
    *(example_a(g, 2)[0] for g in (1, 2, 3)), *(example_b(g)[0] for g in (1, 2, 3, 4)),
    neg_group(1), neg_group(2), trivial_group()],
    ids=["a1", "a2", "a3", "b1", "b2", "b3", "b4", "neg1", "neg2", "trivial"])
def test_ns_fixed_matches_z_block_route(group):
    rank, forms = ns_fixed(group)
    want = _ns_fixed_by_blocks(group)
    assert rank == len(want)
    if rank == 1:  # ns_fixed normalizes a rank-one generator's sign
        assert forms[0] in (want[0], -want[0])
    else:
        assert list(forms) == want


_UNIT_ORDERS = ((RATIONAL, 2), (GAUSSIAN, 4), (EISENSTEIN, 3), (EISENSTEIN, 6))


def _elementary(n, i, j, x):
    """The n x n integer matrix 1 + x E_ij."""
    return IntMatrix(n, n, tuple(tuple(int(r == c) + x * ((r, c) == (i, j)) for c in range(n))
                                 for r in range(n)))


@st.composite
def generator_sets(draw):
    """A group over Z, Z[i] or Z[w] with g <= 3 and one to three generators.

    Each generator is one of example_a's generators conjugated by a
    unimodular q, a transvection [[1, S], [0, 1]] with S symmetric, or a
    matrix of entries in {-1, 0, 1}.  Over a CM order q is the action of a
    product of elementary O-matrices, so the conjugates still commute with
    J; over Z it is a product of elementary 2g x 2g integer matrices.  Both
    make the generators non-block-diagonal.  Only the torus and the
    generators matter to ns_fixed, so the elements are not closed.
    """
    order, m = draw(st.sampled_from(_UNIT_ORDERS))
    g = draw(st.integers(1, 3))
    n = 2 * g
    size = g if order.is_cm else n
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    q = q_inv = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        a = draw(st.integers(-2, 2))
        if order.is_cm:
            b = draw(st.integers(-2, 2))
            e, e_inv = (rational_rep(OrderMatrix.from_pairs(order, [
                [(int(r == c) + s * a * ((r, c) == (i, j)), s * b * ((r, c) == (i, j)))
                 for c in range(g)] for r in range(g)])) for s in (1, -1))
        else:
            e, e_inv = _elementary(n, i, j, a), _elementary(n, i, j, -a)
        q, q_inv = q * e, e_inv * q_inv
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["conjugate", "transvection", "random"]))
        if kind == "conjugate":
            rho = draw(st.sampled_from(example_a(g, m)[0].generators))
            gens.append(q_inv * rho * q)
        elif kind == "transvection":
            c = draw(st.lists(st.lists(st.integers(-2, 2), min_size=g, max_size=g),
                              min_size=g, max_size=g))
            s = IntMatrix(g, g, tuple(map(tuple, c)))
            one, zero = IntMatrix.identity(g), IntMatrix.zeros(g, g)
            gens.append(IntMatrix.from_blocks([[one, s + s.transpose()], [zero, one]]))
        else:
            cells = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
            gens.append(IntMatrix(n, n, tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))))
    gens = tuple(gens)
    return MatrixGroup(Torus(order, g), gens, gens)


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_ns_fixed_matches_matrix_product_route(group):
    assert ns_fixed(group) == ns_fixed_reference(group)


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
        (sum(Fraction(rho[i, j]) * x[j] for j in range(4)) - x[i]) % 1 == 0
        for rho in grp.elements
        for x in kernel_elements(k)
        for i in range(4))
    assert action_on_kernel(grp, k) is True
    assert swept is True


def test_kernel_action_requires_invariance():
    grp, _ = example_a(2, 2)
    with pytest.raises(NotInvariant):
        action_on_kernel(grp, kernel_group(xi_g(2)))


# -- serialization -------------------------------------------------------------------


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


@pytest.mark.parametrize("g, elements, message", [
    (0, [[]], "g must be"),
    (-1, [[[1, 0]]], "g must be"),
    (1.9, [[[1, 0]]], "g must be"),
    (1, [[[1, 0], [0, 0]]], "exactly 1 O-entries"),
    (2, [[[1, 0], [0, 0], [0, 0]]], "exactly 4 O-entries"),
    (1, [[[1, 0, 5]]], "pair of 2 integers"),
    (1, [[[1]]], "pair of 2 integers"),
    (1, [[[1, "0"]]], "pair of 2 integers"),
    (1, [[[1.0, 0]]], "pair of 2 integers"),
    (1, [[[1, False]]], "pair of 2 integers"),
], ids=["g-zero", "g-negative", "g-float", "extra-entry", "missing-entry", "triple", "single",
        "string", "float", "bool"])
def test_group_json_rejects_malformed_elements(g, elements, message):
    text = json.dumps({"order_kind": "Z", "g": g, "elements": elements})
    with pytest.raises(ValueError, match=message):
        group_from_json(text)


def test_group_json_accepts_trivial_group():
    back = group_from_json(json.dumps({"order_kind": "Z", "g": 1, "elements": [[[1, 0]]]}))
    assert back.order == 1
