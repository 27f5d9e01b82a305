"""Forms, kernels, restriction, and the bounded sublattice scan."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    NotMember,
    kernel_elements,
    pfaffian,
    rank_over_field,
    saturate,
    weil_pairing,
)
from ppavlab import polarizations

from ppavlab.exact_linalg import (
    IntMatrix,
    NotAlternating,
    RankDeficient,
    hnf_columns,
    hstack,
    is_positive_definite,
    kernel_basis,
    snf,
)
from ppavlab.polarizations import (
    Degenerate,
    FiniteSymplecticGroup,
    IncompatibleForm,
    NotPositive,
    NotSaturated,
    NotStable,
    BudgetExceeded,
    PolarizedTorus,
    SubtorusRestriction,
    _compatible,
    _distinct_spans,
    _hyperplane_basis,
    _plane_basis,
    _primitive_vectors,
    alternating_type,
    associated_symmetric,
    box_product,
    is_principal,
    kernel_group,
    polarization_from_json,
    polarization_to_json,
    polarization_type,
    restrict,
    restrict_with_basis,
    scale,
    scan_subtorus_types,
    self_intersection,
    split_form,
    theta_g,
    xi_g,
)
from ppavlab.tori import GAUSSIAN, EISENSTEIN, RATIONAL, OrderMatrix, Torus, rational_rep


def random_pd_block(g, rng, span=2):
    c = IntMatrix.from_rows([[rng.randint(-span, span) for _ in range(g)]
                             for _ in range(g)], cols=g)
    return c.transpose() * c + IntMatrix.identity(g)


# -- construction and validation ---------------------------------------------


@pytest.mark.parametrize("call, error", [
    (lambda: alternating_type(IntMatrix.zeros(2, 2)), Degenerate),
    # Smith diagonal (1, 2): the divisors do not pair up
    (lambda: alternating_type(IntMatrix.from_rows([[1, 0], [0, 2]])), NotAlternating),
    (lambda: theta_g(0), ValueError),
    (lambda: xi_g(0), ValueError),
    (lambda: weil_pairing(kernel_group(xi_g(1)), (0, 0, 0), (0, 0, 0, 0)), NotMember),
    (lambda: restrict_with_basis(theta_g(2), IntMatrix.identity(3)), IncompatibleForm),
    # Z(1, 0) in the lattice of E_i is saturated, but i·(1, 0) = (0, 1) leaves it
    (lambda: restrict_with_basis(theta_g(1, GAUSSIAN), IntMatrix.from_columns([(1, 0)])),
     NotStable),
], ids=["type-degenerate", "type-unpaired", "theta-0", "xi-0", "pairing-length",
        "restrict-rows", "gaussian-not-stable"])
def test_boundary_raises(call, error):
    with pytest.raises(error):
        call()


def test_theta_form_frozen():
    assert theta_g(2).form == IntMatrix.from_rows([
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def test_xi_blocks_frozen():
    assert xi_g(2).form.block(0, 2, 2, 4) == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert xi_g(1).form == IntMatrix.from_rows([[0, 2], [-2, 0]])


def test_constructor_rejections():
    with pytest.raises(NotAlternating):
        PolarizedTorus(Torus(RATIONAL, 1), IntMatrix.identity(2))
    with pytest.raises(IncompatibleForm):
        # alternating, but pairs coordinates inside the plain block
        PolarizedTorus(Torus(RATIONAL, 2), IntMatrix.from_rows(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
    with pytest.raises(Degenerate):
        PolarizedTorus(Torus(RATIONAL, 2),
                       split_form(IntMatrix.from_rows([[0, 0], [0, 1]])))
    with pytest.raises(NotPositive):
        PolarizedTorus(Torus(RATIONAL, 1), IntMatrix.from_rows([[0, -1], [1, 0]]))
    with pytest.raises(NotPositive):
        PolarizedTorus(Torus(GAUSSIAN, 1), IntMatrix.from_rows([[0, -1], [1, 0]]))


@pytest.mark.parametrize("form", [
    theta_g(1).form.scaled(2.5),
    theta_g(1).form.scaled(2.0),
    theta_g(1).form.scaled(Fraction(2)),
    # equal to theta_1's form entry by entry, since True == 1; the direct
    # constructor skips the builders' own type check
    IntMatrix(2, 2, ((0, True), (-1, 0))),
], ids=["float", "integral-float", "fraction", "bool"])
def test_constructor_rejects_non_int_entries(form):
    with pytest.raises(IncompatibleForm, match="integers"):
        PolarizedTorus(Torus(RATIONAL, 1), form)


def test_compatible_form_standard_symplectic():
    g = 2
    i = IntMatrix.identity(g)
    z = IntMatrix.zeros(g, g)
    m = IntMatrix.from_blocks([[z, i], [-i, z]])
    for o in (RATIONAL, GAUSSIAN, EISENSTEIN):
        assert _compatible(Torus(o, g), m)


def test_compatible_form_rejections():
    b = IntMatrix.from_rows([[1, 2], [0, 1]])  # not symmetric
    z = IntMatrix.zeros(2, 2)
    m = IntMatrix.from_blocks([[z, b], [-b, z]])
    assert not _compatible(Torus(RATIONAL, 2), m)
    # pairs e_1 with e_2 but i*e_1 with nothing, so multiplication by i
    # cannot preserve it
    skew = IntMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                                [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not _compatible(Torus(GAUSSIAN, 2), skew)
    # the constructor rejects a form of the wrong shape before _compatible
    with pytest.raises(IncompatibleForm):
        PolarizedTorus(Torus(GAUSSIAN, 2), IntMatrix.identity(3))


def _complex_structure_reference(torus):
    """The block matrix [[0, v], [1, u]] of multiplication by w, built afresh."""
    u, v = (torus.order.u, torus.order.v) if torus.order.is_cm else (0, -1)
    i, z = IntMatrix.identity(torus.g), IntMatrix.zeros(torus.g, torus.g)
    return IntMatrix.from_blocks([[z, i.scaled(v)], [i, i.scaled(u)]])


def _compatible_reference(torus, m):
    """The four-block compatibility test that tori.Torus carried before."""
    if m.rows != 2 * torus.g or m.cols != 2 * torus.g:
        return False
    if torus.order.is_cm:
        j = _complex_structure_reference(torus)
        return j.transpose() * m * j == m.scaled(torus.order.norm_w)
    g = torus.g
    b = m.block(0, g, g, 2 * g)
    return (m.block(0, g, 0, g) == IntMatrix.zeros(g, g)
            and m.block(g, 2 * g, g, 2 * g) == IntMatrix.zeros(g, g)
            and b.is_symmetric()
            and m.block(g, 2 * g, 0, g) == -b)


def rejection_det_first(torus, form):
    """The exception class the constructor's checks give with det taken first."""
    n = torus.lattice_rank
    if form.rows != n or form.cols != n:
        return IncompatibleForm
    if not form.is_antisymmetric():
        return NotAlternating
    if not _compatible_reference(torus, form):
        return IncompatibleForm
    if form.det() == 0:
        return Degenerate
    if not is_positive_definite(associated_symmetric(torus, form)):
        return NotPositive
    return None


@st.composite
def candidate_forms(draw):
    """(torus, form) over Z, Z[i] or Z[omega], valid or not.

    split_form(B) with B = C^t C made singular by a zero row of C, or
    C^t C - k (often indefinite), or C^t C + 1 (positive); or theta_g or
    xi_g pulled back by an O-matrix A that may be singular, sometimes
    negated.  split_form(B) is compatible over every order when B is
    symmetric.
    """
    order = draw(st.sampled_from((RATIONAL, GAUSSIAN, EISENSTEIN)))
    g = draw(st.integers(1, 3))
    entries = st.integers(-3, 3)
    kind = draw(st.sampled_from(("singular", "shifted", "positive", "pulled-back")))
    if kind == "pulled-back":
        base = draw(st.sampled_from((theta_g, xi_g)))(g, order)
        w_part = entries if order.is_cm else st.just(0)
        pairs = draw(st.lists(st.lists(st.tuples(entries, w_part), min_size=g, max_size=g),
                              min_size=g, max_size=g))
        a = rational_rep(OrderMatrix.from_pairs(order, pairs))
        form = a.transpose() * base.form * a
        return base.torus, -form if draw(st.booleans()) else form
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g), min_size=g, max_size=g))
    if kind == "singular":
        rows[draw(st.integers(0, g - 1))] = [0] * g
    c = IntMatrix.from_rows(rows, cols=g)
    shift = {"singular": 0, "shifted": -draw(st.integers(1, 9)), "positive": 1}[kind]
    return Torus(order, g), split_form(c.transpose() * c + IntMatrix.identity(g).scaled(shift))


@settings(max_examples=400, deadline=None)
@given(candidate_forms())
def test_constructor_rejection_matches_det_first_order(case):
    torus, form = case
    try:
        PolarizedTorus(torus, form)
        got = None
    except (IncompatibleForm, NotAlternating, Degenerate, NotPositive) as exc:
        got = type(exc)
    assert got is rejection_det_first(torus, form)


@st.composite
def symmetric_blocks(draw):
    """A symmetric g x g block, g <= 4: positive, indefinite or singular.

    C^t C + 1 is positive; C^t C - k often indefinite; C^t C with a zero row
    in C singular; a random symmetric matrix any of the three.
    """
    g = draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    kind = draw(st.sampled_from(("positive", "shifted", "singular", "any")))
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g), min_size=g, max_size=g))
    c = IntMatrix.from_rows(rows, cols=g)
    if kind == "any":
        return c + c.transpose()
    if kind == "singular":
        c = IntMatrix.from_rows(rows[:-1] + [[0] * g], cols=g)
    shift = {"positive": 1, "singular": 0, "shifted": -draw(st.integers(1, 12))}[kind]
    return c.transpose() * c + IntMatrix.identity(g).scaled(shift)


@settings(max_examples=400, deadline=None)
@given(symmetric_blocks())
def test_z_validation_on_the_block_matches_the_2mj_route(b):
    # over Z the constructor decides positivity on B; 2MJ decides it on 2g x 2g
    torus, form = Torus(RATIONAL, b.rows), split_form(b)
    if not is_positive_definite(form * _complex_structure_reference(torus) * 2):
        want = Degenerate if form.det() == 0 else NotPositive
    else:
        want = None
    try:
        PolarizedTorus(torus, form)
        got = None
    except (Degenerate, NotPositive) as exc:
        got = type(exc)
    assert got is want


@settings(max_examples=200, deadline=None)
@given(candidate_forms())
def test_associated_symmetric_matches_full_formula(case):
    torus, form = case
    u = torus.order.u if torus.order.is_cm else 0
    want = form * _complex_structure_reference(torus) * 2 - form.scaled(u)
    assert associated_symmetric(torus, form) == want


def test_theta_and_xi_valid_over_every_order():
    for order in (RATIONAL, GAUSSIAN, EISENSTEIN):
        for g in (1, 2, 3):
            theta_g(g, order)
            xi_g(g, order)


# -- type ----------------------------------------------------------------------


def test_polarization_type_examples():
    assert polarization_type(theta_g(3)) == (1, 1, 1)
    assert is_principal(theta_g(3))
    for g in range(1, 7):
        assert polarization_type(xi_g(g)) == (1,) * (g - 1) + (g + 1,)
    diag = PolarizedTorus(Torus(RATIONAL, 2), split_form(IntMatrix.from_rows([[1, 0], [0, 2]])))
    assert polarization_type(diag) == (1, 2)
    assert not is_principal(diag)


def test_one_smith_reduction_per_torus(monkeypatch):
    reduced = []
    real_snf = polarizations.snf
    monkeypatch.setattr(polarizations, "snf", lambda m: reduced.append(m) or real_snf(m))
    p = xi_g(3)
    assert polarization_type(p) == (1, 1, 4)
    assert not is_principal(p)
    assert kernel_group(p).order == 16
    assert reduced == [p.form]
    # the box product is reduced from its own form, not merged from p's
    box = box_product(p, theta_g(1))
    assert polarization_type(box) == (1, 1, 1, 4) and kernel_group(box).order == 16
    assert reduced == [p.form, box.form]


@st.composite
def valid_polarization(draw):
    """A polarized torus over Z, Z[i] or Z[omega], often of a non-trivial type.

    Each factor is split_form(C^t C + I) for a random C over Z, or theta_g or
    xi_g pulled back by a random O-linear map A (the form A^t M A stays
    compatible and positive when det A != 0); one or two factors are boxed.
    """
    order = draw(st.sampled_from((RATIONAL, GAUSSIAN, EISENSTEIN)))
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        g = draw(st.integers(1, 3))
        entries = st.integers(-3, 3)
        if not order.is_cm and draw(st.booleans()):
            c = IntMatrix.from_rows(draw(st.lists(st.lists(entries, min_size=g, max_size=g),
                                                  min_size=g, max_size=g)), cols=g)
            factors.append(PolarizedTorus(Torus(RATIONAL, g),
                                          split_form(c.transpose() * c + IntMatrix.identity(g))))
            continue
        base = draw(st.sampled_from((theta_g, xi_g)))(g, order)
        w_part = entries if order.is_cm else st.just(0)
        pairs = draw(st.lists(st.lists(st.tuples(entries, w_part), min_size=g, max_size=g),
                              min_size=g, max_size=g))
        a = rational_rep(OrderMatrix.from_pairs(order, pairs))
        assume(a.det() != 0)
        factors.append(PolarizedTorus(base.torus, a.transpose() * base.form * a))
    return box_product(*factors)


@settings(max_examples=150, deadline=None)
@given(valid_polarization())
def test_polarization_type_matches_alternating_type(p):
    # alternating_type keeps the snf_diagonal route, so it is an independent oracle
    assert polarization_type(p) == alternating_type(p.form)


# -- kernel groups -------------------------------------------------------------


def brute_kernel_order(form: IntMatrix) -> int:
    # walk the finite grid (1/D)Z^n mod 1 and count members; D = last divisor
    d = snf(form).d
    den = max(d[i, i] for i in range(form.rows))
    n = form.rows
    count = 0
    import itertools as it
    for pt in it.product(range(den), repeat=n):
        x = [Fraction(a, den) for a in pt]
        vals = [sum(Fraction(form[i, j]) * x[j] for j in range(n)) for i in range(n)]
        count += all(v.denominator == 1 for v in vals)
    return count


def test_kernel_group_trivial_for_principal():
    k = kernel_group(theta_g(2))
    assert k.order == 1 and k.orders == ()
    assert list(kernel_elements(k)) == [(Fraction(0),) * 4]


def test_kernel_group_xi_is_diagonal_torsion():
    for g in range(1, 5):
        k = kernel_group(xi_g(g))
        assert k.order == (g + 1) ** 2
        d1 = tuple([Fraction(1, g + 1)] * g + [Fraction(0)] * g)
        d2 = tuple([Fraction(0)] * g + [Fraction(1, g + 1)] * g)
        assert k.contains(d1) and k.contains(d2)
        # every element is constant within each block
        for x in kernel_elements(k):
            assert len(set(x[:g])) == 1 and len(set(x[g:])) == 1


def test_kernel_group_order_against_brute_force():
    for p in (xi_g(1), xi_g(2), scale(theta_g(1), 3)):
        assert kernel_group(p).order == brute_kernel_order(p.form)


def test_kernel_of_scaled_theta_is_full_torsion():
    k = kernel_group(scale(theta_g(2), 2))
    assert k.order == 16 and k.orders == (2, 2, 2, 2)
    for pt in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert k.contains([Fraction(a, 2) for a in pt])


def test_kernel_of_scaled_xi_contains_full_torsion():
    k = kernel_group(scale(xi_g(2), 2))
    for pt in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert k.contains([Fraction(a, 2) for a in pt])


@pytest.mark.parametrize("x", [("1/3",) * 4, (True,) * 4, (0.5, 0, 0, 0),
                               (Fraction(1, 3), 0, 0, 1.0)],
                         ids=["str", "bool", "float", "float-among-exact"])
def test_kernel_contains_refuses_inexact_entries(x):
    with pytest.raises(ValueError, match="^vector entries must be int or Fraction, got "):
        kernel_group(xi_g(2)).contains(x)


def test_weil_pairing_values():
    k1 = kernel_group(xi_g(1))
    x, y = (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))
    assert weil_pairing(k1, x, x) == 0
    assert weil_pairing(k1, x, y) == Fraction(1, 2)
    k2 = kernel_group(xi_g(2))
    a, b = k2.generators
    assert weil_pairing(k2, a, b) in (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(NotMember):
        weil_pairing(kernel_group(theta_g(1)), (Fraction(1, 2), 0), (0, 0))


def test_weil_pairing_alternating_and_nondegenerate():
    for g in (1, 2, 3):
        k = kernel_group(xi_g(g))
        els = list(kernel_elements(k))
        assert len(els) == k.order
        for x in els:
            assert weil_pairing(k, x, x) == 0
        for i, a in enumerate(k.generators):
            assert any(weil_pairing(k, a, b) != 0 for b in k.generators)


# -- scale / box ----------------------------------------------------------------


def test_scale_multiplies_type():
    assert polarization_type(scale(theta_g(2), 3)) == (3, 3)
    with pytest.raises(ValueError):
        scale(theta_g(1), 0)


@pytest.mark.parametrize("factor", [2.5, 2.0, Fraction(2), True, False, -1],
                         ids=["float", "integral-float", "fraction", "true", "false", "negative"])
def test_scale_rejects_non_int_factor(factor):
    # unchecked, 2.5 gives a float form of type (2.5, 2.5) and True passes as 1
    with pytest.raises(ValueError, match="integer >= 1"):
        scale(theta_g(2), factor)


def test_box_product_of_thetas_is_theta():
    assert box_product(theta_g(1), theta_g(2)) == theta_g(3)


def test_box_product_kernel_orders_multiply():
    k = kernel_group(box_product(xi_g(1), xi_g(2)))
    assert k.order == 4 * 9


def test_box_product_order_mismatch():
    from ppavlab.tori import OrderMismatch
    with pytest.raises(OrderMismatch):
        box_product(theta_g(1), theta_g(1, GAUSSIAN))


def _box_pair(p, q):
    """The product form of two factors, written out entry by entry."""
    g1, g2 = p.g, q.g
    where = ([(0, j) for j in range(g1)] + [(1, j) for j in range(g2)]
             + [(0, g1 + j) for j in range(g1)] + [(1, g2 + j) for j in range(g2)])
    forms = (p.form, q.form)
    rows = [[forms[a][i, j] if a == b else 0 for b, j in where] for a, i in where]
    return PolarizedTorus(Torus(p.torus.order, g1 + g2), IntMatrix.from_rows(rows))


@pytest.mark.parametrize("order", [RATIONAL, GAUSSIAN, EISENSTEIN], ids=lambda o: o.kind)
def test_box_product_of_many_equals_pairwise_chain(order):
    rng = random.Random(order.kind)
    for count in (1, 2, 3, 4):
        for _ in range(5):
            ps = [scale(rng.choice((theta_g, xi_g))(rng.randint(1, 2), order), rng.randint(1, 3))
                  for _ in range(count)]
            chain = ps[0]
            for q in ps[1:]:
                chain = _box_pair(chain, q)
            assert box_product(*ps) == chain


def test_box_product_of_mixed_orders_raises():
    from ppavlab.tori import OrderMismatch
    with pytest.raises(OrderMismatch):
        box_product(theta_g(1), xi_g(2), theta_g(1, GAUSSIAN))
    with pytest.raises(ValueError):
        box_product()


def test_box_product_seeded_type_merge():
    rng = random.Random(23)
    for _ in range(20):
        b1 = random_pd_block(rng.randint(1, 2), rng)
        b2 = random_pd_block(rng.randint(1, 2), rng)
        p = PolarizedTorus(Torus(RATIONAL, b1.rows), split_form(b1))
        q = PolarizedTorus(Torus(RATIONAL, b2.rows), split_form(b2))
        box = box_product(p, q)
        assert kernel_group(box).order == kernel_group(p).order * kernel_group(q).order
        assert math.prod(polarization_type(box)) == (
            math.prod(polarization_type(p)) * math.prod(polarization_type(q)))


# -- self-intersection -----------------------------------------------------------


def test_self_intersection_frozen():
    assert self_intersection(theta_g(3)) == 6
    assert self_intersection(xi_g(2)) == 6


@st.composite
def _split_forms(draw):
    """split_form(C^t C + I) for a random integer C, g <= 4, entries in [-5, 5]."""
    g = draw(st.integers(1, 4))
    c = IntMatrix.from_rows(draw(st.lists(st.lists(st.integers(-5, 5), min_size=g, max_size=g),
                                          min_size=g, max_size=g)), cols=g)
    return PolarizedTorus(Torus(RATIONAL, g),
                          split_form(c.transpose() * c + IntMatrix.identity(g)))


def _assert_self_intersection_by_oracles(p):
    # the Pfaffian oracle and the snf_diagonal route share no code with the
    # torus's cached Smith form
    assert self_intersection(p) == math.factorial(p.g) * abs(pfaffian(p.form))
    assert polarization_type(p) == alternating_type(p.form)


@settings(max_examples=100, deadline=None)
@given(_split_forms())
def test_self_intersection_matches_pfaffian_oracle(p):
    _assert_self_intersection_by_oracles(p)


@pytest.mark.parametrize("order", [GAUSSIAN, EISENSTEIN], ids=["gaussian", "eisenstein"])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_self_intersection_matches_pfaffian_oracle_over_cm_orders(g, order):
    for p, want in ((theta_g(g, order), math.factorial(g)),
                    (xi_g(g, order), math.factorial(g) * (g + 1))):
        _assert_self_intersection_by_oracles(p)
        assert self_intersection(p) == want


def test_self_intersection_of_example_c():
    from ppavlab.group_actions import example_c

    pol = example_c()[1]
    _assert_self_intersection_by_oracles(pol)
    assert polarization_type(pol) == (1, 2)
    assert self_intersection(pol) == 4


def test_self_intersection_xi_by_rank_one_update_oracle():
    # det(I + ones) = 1 + <ones-column, ones-column> = g + 1
    for g in range(1, 6):
        ones = [1] * g
        det_oracle = 1 + sum(a * b for a, b in zip(ones, ones))
        assert self_intersection(xi_g(g)) == math.factorial(g) * det_oracle


# -- restriction and complements ---------------------------------------------


def doubled(cols: list[list[int]], g: int) -> IntMatrix:
    base = IntMatrix.from_columns(cols, rows=g)
    z = IntMatrix.zeros(g, base.cols)
    return IntMatrix.from_blocks([[base, z], [z, base]])


def test_restrict_diagonal_of_xi2():
    sub = restrict(xi_g(2), doubled([[1, 1]], 2))
    assert polarization_type(sub) == (6,)
    assert sub.form == IntMatrix.from_rows([[0, 6], [-6, 0]])


def test_restrict_axis_of_theta_is_principal():
    sub = restrict(theta_g(2), doubled([[1, 0]], 2))
    assert polarization_type(sub) == (1,)


# the form-orthogonal complement of span(s) is the kernel of s^t·M


def test_complement_of_axis_in_theta():
    c = kernel_basis(doubled([[1, 0]], 2).transpose() * theta_g(2).form)
    assert hnf_columns(c) == doubled([[0, 1]], 2)


def test_complement_of_diagonal_in_xi2():
    c = kernel_basis(doubled([[1, 1]], 2).transpose() * xi_g(2).form)
    assert c == doubled([[1, -1]], 2)
    assert polarization_type(restrict(xi_g(2), c)) == (2,)


def test_restrict_complement_index_identity():
    p = xi_g(2)
    s = doubled([[1, 1]], 2)
    r1 = restrict_with_basis(p, s)
    c = kernel_basis(s.transpose() * p.form)
    r2 = restrict_with_basis(p, c)
    u = hstack(r1.embedding, r2.embedding)
    # orthogonal splitting: index^2 * det(form) = det(restr) * det(compl restr)
    assert (u.det() ** 2) * p.form.det() == r1.polarized.form.det() * r2.polarized.form.det()


def test_restrict_rejects_unsaturated_and_unstable():
    with pytest.raises(NotSaturated):
        restrict(theta_g(2), doubled([[2, 0]], 2))
    # graph-like sublattice: stable over Z[i] but not split over Z
    graph = IntMatrix.from_columns([[1, 0, 0, 1], [0, -1, 1, 0]], rows=4)
    with pytest.raises(NotStable):
        restrict(theta_g(2), graph)


@pytest.mark.parametrize("s", [
    IntMatrix.from_columns([(1, 1, 0, 0), (2, 2, 0, 0), (0, 0, 1, 1)], rows=4),
    IntMatrix.zeros(4, 0),
    IntMatrix.zeros(4, 2),
], ids=["dependent-columns", "no-columns", "zero-columns"])
def test_restrict_rejects_rank_deficient_and_empty_bases(s):
    # each would restrict to a torus of the wrong size, g = 1 or g = 0
    with pytest.raises(NotSaturated, match="full column rank"):
        restrict(xi_g(2), s)


def _aligned_by_kernels(g, s):
    """The double copy found as L1 = top·ker(bot) and L2 = bot·ker(top)."""
    k = s.cols
    top, bot = s.block(0, g, 0, k), s.block(g, 2 * g, 0, k)
    l1 = hnf_columns(top * kernel_basis(bot))
    if l1 != hnf_columns(bot * kernel_basis(top)):
        raise NotStable("sublattice does not split as a double copy")
    z = IntMatrix.zeros(g, l1.cols)
    aligned = IntMatrix.from_blocks([[l1, z], [z, l1]])
    if hnf_columns(aligned) != hnf_columns(s):
        raise NotStable("sublattice is not stable under the complex structure")
    return aligned


@st.composite
def _double_copies_and_spans(draw):
    """(g, columns): a double copy L + L mixed by column operations, or any span."""
    g = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        h = draw(st.integers(1, g))
        cols = [list(c) for c in doubled(
            draw(st.lists(st.lists(entry, min_size=g, max_size=g),
                          min_size=h, max_size=h)), g).columns()]
        for i, j, q in draw(st.lists(st.tuples(st.integers(0, 2 * h - 1),
                                               st.integers(0, 2 * h - 1), entry),
                                     max_size=6)):
            if i != j:
                cols[j] = [a + q * b for a, b in zip(cols[j], cols[i])]
    else:
        cols = draw(st.lists(st.lists(entry, min_size=2 * g, max_size=2 * g),
                             min_size=1, max_size=2 * g - 1))
    return g, IntMatrix.from_columns(cols, rows=2 * g)


@settings(max_examples=300, deadline=None)
@given(_double_copies_and_spans())
def test_double_copy_read_off_hnf_matches_kernel_route(case):
    g, s = case
    sat = saturate(hnf_columns(s))
    assume(sat.cols > 0)
    outcomes = []
    for route in (lambda: restrict_with_basis(theta_g(g), sat).embedding,
                  lambda: _aligned_by_kernels(g, sat)):
        try:
            outcomes.append(route())
        except NotStable:
            outcomes.append(NotStable)
    assert outcomes[0] == outcomes[1]


def test_restrict_gaussian_graph_sublattice():
    graph = IntMatrix.from_columns([[1, 0, 0, 1], [0, -1, 1, 0]], rows=4)
    res = restrict_with_basis(theta_g(2, GAUSSIAN), graph)
    assert polarization_type(res.polarized) == (2,)
    assert hnf_columns(res.embedding) == hnf_columns(graph)


def test_restrict_gaussian_axis():
    axis = doubled([[1, 0]], 2)
    assert polarization_type(restrict(theta_g(2, GAUSSIAN), axis)) == (1,)


def test_restrict_eisenstein_diagonal():
    diag = doubled([[1, 1]], 2)
    sub = restrict(xi_g(2, EISENSTEIN), diag)
    assert polarization_type(sub) == (6,)


def test_restrict_seeded_positivity_and_splitting():
    rng = random.Random(31)
    for _ in range(25):
        g = 3
        b = random_pd_block(g, rng)
        p = PolarizedTorus(Torus(RATIONAL, g), split_form(b))
        k = rng.randint(1, g - 1)
        cols = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(k)]
        base = IntMatrix.from_columns(cols, rows=g)
        if rank_over_field(base) < k:
            continue
        sat = saturate(base)
        s = doubled(sat.columns(), g)
        r1 = restrict_with_basis(p, s)
        c = kernel_basis(s.transpose() * p.form)
        r2 = restrict_with_basis(p, c)
        u = hstack(r1.embedding, r2.embedding)
        assert (u.det() ** 2) * p.form.det() == (
            r1.polarized.form.det() * r2.polarized.form.det())


# -- sublattice scan ------------------------------------------------------------


def test_scan_rejects_large_budget():
    with pytest.raises(BudgetExceeded):
        scan_subtorus_types(5, 1)
    with pytest.raises(BudgetExceeded):
        scan_subtorus_types(2, 6)


@pytest.mark.parametrize("n, height", [(3, 0), (3, -2), (0, 2), (-1, 1)])
def test_scan_rejects_vacuous_bounds(n, height):
    # these used to return () and so pass as a scan that found nothing
    with pytest.raises(ValueError, match="must be >= 1"):
        scan_subtorus_types(n, height)


@pytest.mark.parametrize("n, height", [(2.5, 1), ("3", 2), (3, 2.0), (3, True)],
                         ids=["n-float", "n-str", "height-float", "height-bool"])
def test_scan_refuses_sizes_that_are_not_ints(n, height):
    # the first three raised TypeError, and height True ran as height 1
    with pytest.raises(ValueError, match=r"^n and height must be >= 1 \(ints, not bools\)"):
        scan_subtorus_types(n, height)


@pytest.mark.parametrize("build", [theta_g, xi_g])
@pytest.mark.parametrize("g", ["2", None, 2.0, True, 0])
def test_product_polarizations_refuse_a_dimension_that_is_not_a_positive_int(build, g):
    # theta_g("2") and xi_g(None) raised TypeError at their own g < 1 test;
    # Torus names g instead
    with pytest.raises(ValueError, match="^g must be an integer >= 1, got "):
        build(g)


def test_scan_of_rank_one_has_no_proper_sublattice():
    assert scan_subtorus_types(1, 3) == ()


def test_scan_budget_counts_subsets():
    # (4, 2) has 272 primitive vectors and 3,354,168 subsets of size < 4;
    # the guard counts them without enumerating any
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="3354168 subsets"):
        scan_subtorus_types(4, 2)
    assert time.perf_counter() - start < 0.5


def _scan_by_saturating_every_subset(n, height):
    """Reference scan: saturate every k-subset and dedupe the saturations."""
    prims = _primitive_vectors(n, height)
    seen = {}
    for k in range(1, n):
        for combo in itertools.combinations(prims, k):
            m = IntMatrix.from_columns([list(v) for v in combo], rows=n)
            try:
                sat = saturate(m)
            except RankDeficient:
                continue
            seen.setdefault(sat.entries, sat)
    gram = xi_g(n).form.block(0, n, n, 2 * n)
    results = []
    for sat in seen.values():
        # the full Smith form of the IntMatrix product, not the scan's route
        d = snf(sat.transpose() * gram * sat).d
        results.append(SubtorusRestriction(sat, tuple(d[i, i] for i in range(d.rows))))
    results.sort(key=lambda r: (r.basis.cols, r.basis.entries))
    return tuple(results)


@pytest.mark.parametrize("n, height", [(2, 3), (3, 1), (3, 2), (3, 3), (4, 1)])
def test_scan_matches_saturating_every_subset(n, height):
    assert scan_subtorus_types(n, height) == _scan_by_saturating_every_subset(n, height)


def _minors(vs):
    """The k x k minors of the columns vs (k <= 3), rows in lexicographic order."""
    if len(vs) == 1:
        return vs[0]
    rows = range(len(vs[0]))
    if len(vs) == 2:
        a, b = vs
        return tuple(a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(rows, 2))
    a, b, c = vs
    return tuple(a[i] * (b[j] * c[l] - b[l] * c[j])
                 - a[j] * (b[i] * c[l] - b[l] * c[i])
                 + a[l] * (b[i] * c[j] - b[j] * c[i])
                 for i, j, l in itertools.combinations(rows, 3))


def _spans_by_keying_every_subset(n, prims):
    """Reference spans: key every k-subset on its primitive Plücker vector."""
    spans = []
    for k in range(1, n):
        keys = set()
        for combo in itertools.combinations(prims, k):
            minors = _minors(combo)
            g = math.gcd(*minors)
            if g == 0:
                continue
            if next(x for x in minors if x) < 0:
                g = -g
            key = tuple(x // g for x in minors)
            if key in keys:
                continue
            keys.add(key)
            if k == 1:
                spans.append(IntMatrix.from_columns(combo, rows=n))
            elif k == n - 1:
                spans.append(_hyperplane_basis([(-1) ** r * key[n - 1 - r] for r in range(n)]))
            else:
                spans.append(_plane_basis(n, key))
    return spans


def _sorted_spans(spans):
    return sorted(spans, key=lambda s: (s.cols, s.entries))


@pytest.mark.parametrize("n, height", [(3, 3), (3, 4), (4, 1)])
def test_distinct_spans_match_keying_every_subset(n, height):
    prims = _primitive_vectors(n, height)
    lines, planes, hyperplanes = _distinct_spans(n, prims)
    assert (_sorted_spans(lines + planes + [s for _, s in hyperplanes])
            == _sorted_spans(_spans_by_keying_every_subset(n, prims)))
    # each normal is primitive and annihilates its hyperplane
    for normal, s in hyperplanes:
        assert math.gcd(*normal) == 1
        assert IntMatrix.from_rows([normal]) * s == IntMatrix.zeros(1, n - 1)


@st.composite
def _primitive_sublists(draw):
    n = draw(st.sampled_from([3, 4]))
    prims = _primitive_vectors(n, 2)
    picks = draw(st.lists(st.integers(0, len(prims) - 1), unique=True, max_size=24))
    return n, [prims[i] for i in sorted(picks)]


@settings(max_examples=60, deadline=None)
@given(_primitive_sublists())
def test_distinct_spans_of_sublists_match_keying_every_subset(case):
    # height-2 vectors give rank-deficient triples and non-primitive minors
    n, prims = case
    lines, planes, hyperplanes = _distinct_spans(n, prims)
    assert (_sorted_spans(lines + planes + [s for _, s in hyperplanes])
            == _sorted_spans(_spans_by_keying_every_subset(n, prims)))


_sparse_entry = st.one_of(st.just(0), st.integers(-30, 30))


@st.composite
def _primitive_rows(draw):
    n = draw(st.integers(2, 6))
    live = draw(st.integers(1, n))  # entries past `live` are zero
    row = draw(st.lists(_sparse_entry, min_size=live, max_size=live)) + [0] * (n - live)
    g = math.gcd(*row)
    assume(g)
    return [x // g for x in row]


@settings(max_examples=400)
@given(_primitive_rows())
def test_hyperplane_basis_matches_kernel_basis(row):
    assert _hyperplane_basis(row) == kernel_basis(IntMatrix.from_rows([row]))


@pytest.mark.parametrize("row", [
    (1, 0, 0), (0, 1, 0), (3, -5, 0), (-1, 0, 0),       # c_2 = 0: the general walk
    (0, 0, 1), (0, 0, -1), (5, 0, 3), (-4, 0, -9),      # c_1 = 0
    (1, 6, 4), (5, -6, 9), (7, 10, -15), (1, 4, 6),     # gcd(c_1, c_2) > 1
    (1, 1, 1), (2, -3, 5), (-1, 2, -7),
    (999_983, 10 ** 6, -999_999), (-(10 ** 6), 999_999, 10 ** 6),
    (1, 2 * 10 ** 5, 10 ** 6), (10 ** 6 - 1, -(10 ** 6), 0), (3, 0, 10 ** 6),
])
def test_hyperplane_basis_of_z3_matches_kernel_basis(row):
    assert math.gcd(*row) == 1
    assert _hyperplane_basis(row) == kernel_basis(IntMatrix.from_rows([row]))


@st.composite
def _unsaturated_pairs(draw):
    n = draw(st.sampled_from([4, 5]))
    vec = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n)
    a, b = draw(vec), draw(vec)
    s1, s2, t = draw(st.integers(2, 6)), draw(st.integers(1, 6)), draw(st.integers(-5, 5))
    # (s1 a + t b, s2 b) spans a sublattice of index s1 s2 in span_Z(a, b)
    return [s1 * x + t * y for x, y in zip(a, b)], [s2 * y for y in b]


def _plucker_key(a, b):
    minors = [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2)]
    g = math.gcd(*minors)
    assume(g)
    if next(x for x in minors if x) < 0:
        g = -g
    return tuple(x // g for x in minors)


@settings(max_examples=200)
@given(_unsaturated_pairs())
def test_plane_basis_matches_saturate(pair):
    a, b = pair
    assert _plane_basis(len(a), _plucker_key(a, b)) == saturate(IntMatrix.from_columns(pair))


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _adjugate(m):
    k = len(m)
    return [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:]
                                     for r, row in enumerate(m) if r != j])
             for j in range(k)] for i in range(k)]


def test_scan_type_product_by_determinant_lemma():
    # the scan's block is S^t (I + J) S = G + u u^t with G = S^t S and
    # u = S^t 1, so its determinant, the product of the type, is
    # det G + u^t adj(G) u (matrix determinant lemma)
    for r in scan_subtorus_types(3, 3):
        s = r.basis
        gram = (s.transpose() * s).entries
        u = [sum(col) for col in zip(*s.entries)]
        adj = _adjugate([list(row) for row in gram])
        det_g = _det([list(row) for row in gram])
        assert det_g >= 1
        assert math.prod(r.type) == det_g + sum(
            u[i] * adj[i][j] * u[j] for i in range(len(u)) for j in range(len(u)))


def test_scan_height_one_contains_diagonal():
    results = scan_subtorus_types(2, 1)
    found = {r.basis.entries: r.type for r in results}
    diag = IntMatrix.from_columns([[1, 1]], rows=2)
    assert found[diag.entries] == (6,)


@pytest.mark.parametrize("n, height", [(2, 1), (3, 3), (4, 1)])
def test_scan_rank_one_types_are_the_block_form(n, height):
    # every rank-1 type is the value of the block form on the basis vector
    b = xi_g(n).form.block(0, n, n, 2 * n)
    rank_one = [r for r in scan_subtorus_types(n, height) if r.basis.cols == 1]
    assert len(rank_one) == len(_primitive_vectors(n, height))
    for r in rank_one:
        v = IntMatrix.from_columns([r.basis.columns()[0]], rows=n)
        assert r.type == ((v.transpose() * b * v)[0, 0],)


@st.composite
def _primitive_normals(draw):
    n = draw(st.integers(3, 6))
    row = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    g = math.gcd(*row)
    assume(g)
    return tuple(x // g for x in row)


@settings(max_examples=40, deadline=None)
@given(_primitive_normals())
def test_hyperplane_type_is_invariant_under_permutation_and_sign(normal):
    # the scan computes one type per orbit of normals; xi_n = split_form(I + J)
    # is invariant under coordinate permutations, so the orbit shares a type
    want = polarizations._block_type(_hyperplane_basis(normal))
    for p in set(itertools.permutations(normal)):
        assert polarizations._block_type(_hyperplane_basis(p)) == want
        assert polarizations._block_type(_hyperplane_basis([-x for x in p])) == want


def test_scan_types_are_not_a_function_of_the_norm():
    # (1, 1, 0) and (1, -1, 0) have the same |nu| but lie in different orbits
    types = {r.basis.entries: r.type for r in scan_subtorus_types(3, 1)}
    assert [math.prod(types[_hyperplane_basis(nu).entries])
            for nu in ((1, 1, 0), (1, -1, 0))] == [4, 8]


@pytest.mark.parametrize("n, height", [(3, 2), (3, 3), (4, 1)])
def test_hyperplane_type_product_is_determinant_formula(n, height):
    # det(S^t (I + J) S) = (n + 1)|nu|^2 - (sum nu)^2 for the saturated
    # hyperplane with primitive normal nu: det(I + J) = n + 1 and
    # (I + J)^-1 = I - J/(n + 1)
    types = {r.basis.entries: r.type for r in scan_subtorus_types(n, height)}
    _, _, hyperplanes = _distinct_spans(n, _primitive_vectors(n, height))
    assert hyperplanes
    for normal, s in hyperplanes:
        assert math.prod(types[s.entries]) == (
            (n + 1) * sum(x * x for x in normal) - sum(normal) ** 2)


def test_principal_type_raises_naming_first_sublattice_of_its_orbit(monkeypatch):
    from ppavlab.checks import RunOptions, _check_subtorus_not_principal

    orbit = {p for v in ((1, 1, 0), (-1, -1, 0)) for p in itertools.permutations(v)}

    def normal(s):
        (a0, b0), (a1, b1), (a2, b2) = s.entries
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)

    real = scan_subtorus_types(3, 3)
    first = next(r for r in real if r.basis.cols == 2 and normal(r.basis) in orbit)
    block_type = polarizations._block_type
    monkeypatch.setattr(polarizations, "_block_type",
                        lambda s: (1, 1) if normal(s) in orbit else block_type(s))
    with pytest.raises(polarizations.PrincipalRestrictionFound) as found:
        scan_subtorus_types(3, 3)
    assert str(found.value) == f"sublattice {first.basis.entries} restricts to a principal type"
    ok, detail = _check_subtorus_not_principal(RunOptions())
    assert ok is False
    assert detail == {"principal_witness": str(found.value)}


def test_scan_type_matches_full_restriction():
    # the scan reads each type off the k x k Gram block; restricting xi_g to
    # the doubled sublattice is the independent route
    for r in scan_subtorus_types(3, 2):
        s = r.basis
        z = IntMatrix.zeros(s.rows, s.cols)
        doubled = IntMatrix.from_blocks([[s, z], [z, s]])
        assert r.type == polarization_type(restrict(xi_g(3), doubled))


def test_scan_none_principal_at_height_three():
    for r in scan_subtorus_types(2, 3):
        assert any(d > 1 for d in r.type)


# -- serialization -------------------------------------------------------------


@pytest.mark.parametrize("pol", [theta_g(2), xi_g(3), scale(theta_g(1), 4),
                                 theta_g(1, GAUSSIAN)], ids=["theta2", "xi3", "4theta1", "gauss"])
def test_polarization_json_roundtrip(pol):
    assert polarization_from_json(polarization_to_json(pol)) == pol


@pytest.mark.parametrize("g, form, message", [
    (1, [[0, 1.7], [-1, 0]], "form must be"),
    (1, [[0, 1.0], [-1, 0]], "form must be"),
    (1, [[0, True], [-1, 0]], "form must be"),
    (1, [[0, "1"], [-1, 0]], "form must be"),
    (1, [0, 1, -1, 0], "form must be"),
    (1, {"0": [0, 1]}, "form must be"),
    (1, [[0, 1, 0], [-1, 0, 0]], "form must be 2x2"),
    (1.9, [[0, 1], [-1, 0]], "g must be"),
    (1.0, [[0, 1], [-1, 0]], "g must be"),
    (True, [[0, 1], [-1, 0]], "g must be"),
    (0, [], "g must be"),
    (-1, [[0, 1], [-1, 0]], "g must be"),
], ids=["entry-float", "entry-integral-float", "entry-bool", "entry-string", "flat-form",
        "form-object", "form-too-wide", "g-float", "g-integral-float", "g-bool", "g-zero", "g-negative"])
def test_polarization_json_rejects_non_integers(g, form, message):
    text = json.dumps({"order": "Z", "g": g, "form": form})
    with pytest.raises(ValueError, match=message):
        polarization_from_json(text)
