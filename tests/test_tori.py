"""Order arithmetic, rational representations, and ranks over Frac(O)."""

import random

import pytest

from ppavlab.exact_linalg import IntMatrix, rank_over_field
from ppavlab.tori import (
    BadOrder,
    EISENSTEIN,
    GAUSSIAN,
    ONE,
    OrderElem,
    OrderMatrix,
    OrderMismatch,
    RATIONAL,
    Torus,
    W,
    ZERO,
    conj,
    oconj,
    omul,
    onorm,
    order_by_kind,
    rational_rep,
    unit_of_order,
    units_of_order,
)

CM_ORDERS = [GAUSSIAN, EISENSTEIN]
ALL_ORDERS = [RATIONAL, GAUSSIAN, EISENSTEIN]


def random_order_matrix(o, g, rng, span=3):
    if o.is_cm:
        rows = [[OrderElem(rng.randint(-span, span), rng.randint(-span, span))
                 for _ in range(g)] for _ in range(g)]
    else:
        rows = [[OrderElem(rng.randint(-span, span), 0)
                 for _ in range(g)] for _ in range(g)]
    return OrderMatrix(o, tuple(tuple(r) for r in rows))


# -- element arithmetic ------------------------------------------------------


def test_w_squared_matches_defining_relation():
    for o in CM_ORDERS:
        assert omul(o, W, W) == OrderElem(o.v, o.u)


def test_norm_is_multiplicative():
    rng = random.Random(7)
    for o in CM_ORDERS:
        for _ in range(200):
            x = OrderElem(rng.randint(-5, 5), rng.randint(-5, 5))
            y = OrderElem(rng.randint(-5, 5), rng.randint(-5, 5))
            assert onorm(o, omul(o, x, y)) == onorm(o, x) * onorm(o, y)


def test_conjugation_is_involutive_and_norm_is_self_times_conj():
    rng = random.Random(8)
    for o in CM_ORDERS:
        for _ in range(100):
            x = OrderElem(rng.randint(-5, 5), rng.randint(-5, 5))
            assert oconj(o, oconj(o, x)) == x
            assert omul(o, x, oconj(o, x)) == OrderElem(onorm(o, x), 0)


def test_units_gaussian():
    assert unit_of_order(GAUSSIAN, 4) == W
    assert unit_of_order(GAUSSIAN, 2) == OrderElem(-1, 0)
    assert units_of_order(GAUSSIAN, 4) == (W, OrderElem(0, -1))


def test_units_eisenstein():
    # w^3 = 1 here, so the order-6 units are -w and 1 + w
    assert units_of_order(EISENSTEIN, 3) == (W, OrderElem(-1, -1))
    assert units_of_order(EISENSTEIN, 6) == (OrderElem(0, -1), OrderElem(1, 1))
    z = unit_of_order(EISENSTEIN, 6)
    p = ONE
    for k in range(1, 7):
        p = omul(EISENSTEIN, p, z)
        assert (p == ONE) == (k == 6)


def test_units_unavailable():
    with pytest.raises(BadOrder):
        unit_of_order(RATIONAL, 4)
    with pytest.raises(BadOrder):
        unit_of_order(EISENSTEIN, 4)
    with pytest.raises(BadOrder):
        unit_of_order(GAUSSIAN, 3)


def test_order_lookup():
    assert order_by_kind("Z[i]") is GAUSSIAN
    with pytest.raises(OrderMismatch):
        order_by_kind("Z[sqrt2]")


# -- matrices over the order -------------------------------------------------


def test_rational_integer_matrices_reject_w_parts():
    with pytest.raises(OrderMismatch):
        OrderMatrix.from_pairs(RATIONAL, [[(0, 1)]])


def is_invertible(m):
    # det_Z(rational_rep(m)) is the norm of det_O(m), a unit iff it is +-1
    return abs(rational_rep(m).det()) == 1


def test_order_matrix_det_and_invertibility():
    m = OrderMatrix.from_pairs(GAUSSIAN, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
    assert m.det() == OrderElem(-1, 0)
    assert is_invertible(m)
    assert not is_invertible(OrderMatrix.from_int_rows(GAUSSIAN, [[2, 0], [0, 1]]))


def random_unimodular_word(o, g, rng):
    # a product of unit diagonals, permutations and elementary shears
    units = [OrderElem(-1, 0)] + ([W, OrderElem(0, -1)] if o.is_cm else [])
    m = OrderMatrix.identity(o, g)
    for _ in range(rng.randint(1, 4)):
        rows = [[ONE if i == j else ZERO for j in range(g)] for i in range(g)]
        kind = rng.randrange(3)
        i, j = rng.sample(range(g), 2)
        if kind == 0:
            rows[i][i] = rng.choice(units)
        elif kind == 1:
            rows[i][i] = rows[j][j] = ZERO
            rows[i][j] = rows[j][i] = ONE
        else:
            b = rng.randint(-3, 3) if o.is_cm else 0
            rows[i][j] = OrderElem(rng.randint(-3, 3), b)
        m = m * OrderMatrix(o, tuple(tuple(r) for r in rows))
    return m


def test_is_invertible_matches_unit_norm_of_det_seeded():
    # the integer action matrix decides invertibility; the O-determinant's
    # norm is the independent route
    rng = random.Random(23)
    seen = set()
    for o in ALL_ORDERS:
        for _ in range(60):
            g = rng.randint(2, 3)
            m = random_unimodular_word(o, g, rng)
            if rng.random() < 0.4:
                m = m * random_order_matrix(o, g, rng, span=2)
            got = is_invertible(m)
            assert got == (abs(onorm(o, m.det())) == 1)
            seen.add(got)
    assert seen == {True, False}


def test_det_multiplicative_seeded():
    rng = random.Random(11)
    for o in ALL_ORDERS:
        for _ in range(50):
            m = random_order_matrix(o, 3, rng, span=2)
            n = random_order_matrix(o, 3, rng, span=2)
            assert (m * n).det() == omul(o, m.det(), n.det())


# -- rational representation -------------------------------------------------


def test_rational_rep_of_i_is_standard_symplectic_rotation():
    m = OrderMatrix.from_pairs(GAUSSIAN, [[(0, 1)]])
    assert rational_rep(m) == IntMatrix.from_rows([[0, -1], [1, 0]])


def test_rational_rep_of_w_eisenstein():
    m = OrderMatrix.from_pairs(EISENSTEIN, [[(0, 1)]])
    assert rational_rep(m) == IntMatrix.from_rows([[0, -1], [1, -1]])


def test_rational_rep_matches_complex_structure():
    # multiplication by w is exactly the complex structure of the torus
    for o in CM_ORDERS:
        for g in (1, 2, 3):
            m = OrderMatrix.scalar(o, g, W)
            assert rational_rep(m) == Torus(o, g).complex_structure()


def test_rational_rep_is_a_ring_homomorphism():
    rng = random.Random(13)
    for o in ALL_ORDERS:
        for _ in range(100):
            m = random_order_matrix(o, 2, rng)
            n = random_order_matrix(o, 2, rng)
            assert rational_rep(m * n) == rational_rep(m) * rational_rep(n)
            assert rational_rep(m - n) == rational_rep(m) - rational_rep(n)


def test_conjugation_base_change():
    # conj acts on the Z-basis through C = [[I, uI], [0, -I]], C^2 = 1
    rng = random.Random(17)
    for o in CM_ORDERS:
        for g in (1, 2, 3):
            i = IntMatrix.identity(g)
            z = IntMatrix.zeros(g, g)
            c = IntMatrix.from_blocks([[i, i.scaled(o.u)], [z, -i]])
            assert c * c == IntMatrix.identity(2 * g)
            for _ in range(30):
                m = random_order_matrix(o, g, rng)
                assert c * rational_rep(m) * c == rational_rep(conj(m))


# -- rank over the fraction field ---------------------------------------------


def doubled_rank_minus_id(m):
    # Q-rank of the integer action of m - 1: twice its rank over Frac(O)
    return rank_over_field(rational_rep(m) - IntMatrix.identity(2 * m.g))


def test_analytic_rank_examples():
    assert doubled_rank_minus_id(OrderMatrix.identity(GAUSSIAN, 3)) == 0
    # diag(i, 1) moves a single coordinate line
    refl = OrderMatrix.from_pairs(GAUSSIAN, [[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
    assert doubled_rank_minus_id(refl) == 2
    m = OrderMatrix.from_pairs(GAUSSIAN, [[(0, -1), (-1, 1)], [(0, 0), (0, 1)]])
    assert doubled_rank_minus_id(m) == 4


def test_analytic_rank_of_minus_id():
    for o in ALL_ORDERS:
        m = OrderMatrix.scalar(o, 3, OrderElem(-1, 0))
        assert doubled_rank_minus_id(m) == 6


# -- torus-level helpers -----------------------------------------------------


def test_complex_structure_satisfies_defining_relation():
    for o in ALL_ORDERS:
        t = Torus(o, 2)
        j = t.complex_structure()
        u, v = (o.u, o.v) if o.is_cm else (0, -1)
        assert j * j == j.scaled(u) + IntMatrix.identity(4).scaled(v)


def test_compatible_form_standard_symplectic():
    g = 2
    i = IntMatrix.identity(g)
    z = IntMatrix.zeros(g, g)
    m = IntMatrix.from_blocks([[z, i], [-i, z]])
    for o in ALL_ORDERS:
        assert Torus(o, g).compatible_form(m)


def test_compatible_form_rejections():
    b = IntMatrix.from_rows([[1, 2], [0, 1]])  # not symmetric
    z = IntMatrix.zeros(2, 2)
    m = IntMatrix.from_blocks([[z, b], [-b, z]])
    assert not Torus(RATIONAL, 2).compatible_form(m)
    # pairs e_1 with e_2 but i*e_1 with nothing, so multiplication by i
    # cannot preserve it
    skew = IntMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                                [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not Torus(GAUSSIAN, 2).compatible_form(skew)
    assert not Torus(GAUSSIAN, 2).compatible_form(IntMatrix.identity(3))
