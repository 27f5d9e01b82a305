"""Order arithmetic, rational representations, and ranks over Frac(O)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank_over_field
from ppavlab.exact_linalg import IntMatrix
from ppavlab.tori import (
    EISENSTEIN,
    GAUSSIAN,
    ONE,
    OrderElem,
    OrderMatrix,
    OrderMismatch,
    QuadOrder,
    RATIONAL,
    Torus,
    W,
    ZERO,
    _order_pairs,
    oconj,
    omul,
    onorm,
    order_by_kind,
    rational_rep,
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


def multiplicative_order(o, z):
    p, k = z, 1
    while p != ONE:
        p, k = omul(o, p, z), k + 1
    return k


@pytest.mark.parametrize("o, orders", [
    (RATIONAL, {ONE: 1, OrderElem(-1, 0): 2}),
    (GAUSSIAN, {ONE: 1, OrderElem(-1, 0): 2, W: 4, OrderElem(0, -1): 4}),
    # w^3 = 1 here, so the order-6 units are -w and 1 + w
    (EISENSTEIN, {ONE: 1, OrderElem(-1, 0): 2, W: 3, OrderElem(-1, -1): 3,
                  OrderElem(0, -1): 6, OrderElem(1, 1): 6}),
], ids=["Z", "Z[i]", "Z[w]"])
def test_unit_groups(o, orders):
    # the units are the elements of norm 1, all inside the box |a|, |b| <= 2
    box = [OrderElem(a, b) for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)
           if o.is_cm or b == 0]
    units = [z for z in box if onorm(o, z) == 1]
    assert {z: multiplicative_order(o, z) for z in units} == orders


@pytest.mark.parametrize("g", [0, -1, True, 2.5, 2.0, "2"])
def test_torus_refuses_a_dimension_that_is_not_a_positive_int(g):
    # Torus(RATIONAL, 2.5) used to build, with lattice_rank 5.0, and True passed as g = 1
    with pytest.raises(ValueError, match="^g must be an integer >= 1, got "):
        Torus(RATIONAL, g)


BAD_ORDERS = pytest.mark.parametrize("order", ["Z", QuadOrder("Z[r2]", 0, 2), (1, 2, 3)],
                                     ids=["str", "real-quadratic", "tuple"])


@BAD_ORDERS
def test_torus_refuses_an_order_outside_the_three(order):
    # "Z" failed later with AttributeError on .is_cm; Z[sqrt 2] was taken as a CM order
    with pytest.raises(OrderMismatch, match="^order must be one of "):
        Torus(order, 2)


@BAD_ORDERS
def test_order_matrix_refuses_an_order_outside_the_three(order):
    with pytest.raises(OrderMismatch, match="^order must be one of "):
        OrderMatrix(order, ((ONE,),))


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


@pytest.mark.parametrize("entries", [[[OrderElem(-1, 0)]], ([OrderElem(-1, 0)],)],
                         ids=["list", "list-row"])
def test_order_matrix_refuses_list_entries(entries):
    # a list made the frozen value unhashable: hash, rational_rep and closure
    # raised TypeError
    with pytest.raises(ValueError, match="^entries must be a tuple of tuple rows$"):
        OrderMatrix(RATIONAL, entries)


def test_order_matrix_rejects_non_square_grid():
    with pytest.raises(ValueError, match="matrix must be square"):
        OrderMatrix.from_int_rows(RATIONAL, [[1, 0]])


BAD_COORDINATES = pytest.mark.parametrize("x", [2.7, -1.9, True, "0"],
                                          ids=["float", "negative-float", "bool", "str"])


@BAD_COORDINATES
@pytest.mark.parametrize("build", [
    lambda x: OrderMatrix.from_int_rows(RATIONAL, [[x]]),
    lambda x: OrderMatrix.from_pairs(GAUSSIAN, [[(x, 0)]]),
    lambda x: OrderMatrix.from_pairs(GAUSSIAN, [[(1, 0), (0, 0)], [(0, x), (1, 0)]]),
    lambda x: OrderMatrix(EISENSTEIN, ((OrderElem(0, x),),)),
], ids=["int-rows", "pairs-a", "pairs-b", "direct"])
def test_order_matrix_refuses_a_coordinate_that_is_not_an_int(build, x):
    # from_int_rows truncated 2.7 to 2 and read True as 1 and "0" as 0
    with pytest.raises(ValueError, match="pair of 2 integers"):
        build(x)


@pytest.mark.parametrize("entry", [5, (1, 0), [1, 0], None],
                         ids=["int", "tuple", "list", "none"])
def test_order_matrix_refuses_an_entry_that_is_not_an_order_elem(entry):
    # OrderMatrix(RATIONAL, ((5,),)) raised AttributeError on the w-part test
    with pytest.raises(ValueError, match="pair of 2 integers"):
        OrderMatrix(RATIONAL, ((entry,),))


@pytest.mark.parametrize("entry", [(1,), (1, 0, 0), 5], ids=["short", "long", "int"])
def test_from_pairs_refuses_an_entry_that_is_not_a_pair(entry):
    # OrderElem(*x) raised TypeError on (1,) and (1, 0, 0), and on 5
    with pytest.raises(ValueError,
                       match="^each O-entry must be an OrderElem, a pair of 2 integers$"):
        OrderMatrix.from_pairs(GAUSSIAN, [[entry]])


def test_order_matrix_det_and_invertibility():
    m = OrderMatrix.from_pairs(GAUSSIAN, [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
    assert m.det() == OrderElem(-1, 0)
    assert is_invertible(m)
    assert not is_invertible(OrderMatrix.from_int_rows(GAUSSIAN, [[2, 0], [0, 1]]))


def random_unimodular_word(o, g, rng):
    # a product of unit diagonals, permutations and elementary shears
    units = [OrderElem(-1, 0)] + ([W, OrderElem(0, -1)] if o.is_cm else [])
    m = OrderMatrix.scalar(o, g, ONE)
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


@st.composite
def order_matrices(draw):
    """An OrderMatrix over Z, Z[i] or Z[w] with g <= 3 (w-part 0 over Z)."""
    order = draw(st.sampled_from(ALL_ORDERS))
    g = draw(st.integers(1, 3))
    coeff = st.integers(-50, 50)
    pair = st.tuples(coeff, coeff if order.is_cm else st.just(0))
    return OrderMatrix.from_pairs(order, draw(st.lists(
        st.lists(pair, min_size=g, max_size=g), min_size=g, max_size=g)))


@settings(max_examples=200, deadline=None)
@given(order_matrices())
def test_order_pairs_inverts_rational_rep(m):
    assert _order_pairs(m.g, rational_rep(m).columns()) == [
        (x.a, x.b) for row in m.entries for x in row]


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
    # entrywise conjugation acts on the Z-basis through C = [[I, uI], [0, -I]], C^2 = 1
    rng = random.Random(17)
    for o in CM_ORDERS:
        for g in (1, 2, 3):
            i = IntMatrix.identity(g)
            z = IntMatrix.zeros(g, g)
            c = IntMatrix.from_blocks([[i, i.scaled(o.u)], [z, -i]])
            assert c * c == IntMatrix.identity(2 * g)
            for _ in range(30):
                m = random_order_matrix(o, g, rng)
                conj = OrderMatrix(o, tuple(tuple(oconj(o, x) for x in r) for r in m.entries))
                assert c * rational_rep(m) * c == rational_rep(conj)


# -- rank over the fraction field ---------------------------------------------


def doubled_rank_minus_id(m):
    # Q-rank of the integer action of m - 1: twice its rank over Frac(O)
    return rank_over_field(rational_rep(m) - IntMatrix.identity(2 * m.g))


def test_analytic_rank_examples():
    assert doubled_rank_minus_id(OrderMatrix.scalar(GAUSSIAN, 3, ONE)) == 0
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


@pytest.mark.parametrize("o", ALL_ORDERS, ids=["Z", "Z[i]", "Z[w]"])
def test_complex_structure_is_the_block_matrix(o):
    # the block layout written out, with the formal (u, v) = (0, -1) over Z
    u, v = (o.u, o.v) if o.is_cm else (0, -1)
    for g in range(1, 7):
        i = IntMatrix.identity(g)
        z = IntMatrix.zeros(g, g)
        assert Torus(o, g).complex_structure() == IntMatrix.from_blocks([[z, i.scaled(v)],
                                                                         [i, i.scaled(u)]])


def test_complex_structure_satisfies_defining_relation():
    for o in ALL_ORDERS:
        t = Torus(o, 2)
        j = t.complex_structure()
        u, v = (o.u, o.v) if o.is_cm else (0, -1)
        assert j * j == j.scaled(u) + IntMatrix.identity(4).scaled(v)

