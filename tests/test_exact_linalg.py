import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pfaffian, rank_over_field, saturate, snf_reference
from ppavlab.exact_linalg import (
    IntMatrix,
    NotAlternating,
    RankDeficient,
    RatMatrix,
    _rat_rows,
    hnf_columns,
    is_positive_definite,
    kernel_basis,
    snf,
    snf_diagonal,
)


def M(rows):
    return IntMatrix.from_rows(rows)


# -- independent oracles -----------------------------------------------------


def perm_sign(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


def matchings(elems):
    if not elems:
        yield []
        return
    first = elems[0]
    for k in range(1, len(elems)):
        for rest in matchings(elems[1:k] + elems[k + 1:]):
            yield [(first, elems[k])] + rest


def pfaffian_oracle(m):
    """Sum over perfect matchings with explicit permutation signs."""
    total = 0
    for match in matchings(list(range(m.rows))):
        flat = [x for pair in match for x in pair]
        prod = 1
        for i, j in match:
            prod *= m[i, j]
        total += perm_sign(flat) * prod
    return total


def random_antisymmetric(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-bound, bound)
            rows[i][j] = x
            rows[j][i] = -x
    return M(rows)


small_ints = st.integers(min_value=-6, max_value=6)


def matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(small_ints, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(M)))


@st.composite
def shaped_matrix(draw):
    """0 to 4 rows and 0 to 5 columns, in one of four shapes.

    "full-column-rank" stacks a triangular block with a non-zero diagonal
    over random rows, in shuffled order; "wide" has more columns than rows;
    "scaled-rows" multiplies one row by 2..6, so it is not primitive.
    """
    shape = draw(st.sampled_from(("any", "full-column-rank", "wide", "scaled-rows")))
    if shape == "full-column-rank":
        c = draw(st.integers(0, 3))
        r = draw(st.integers(c, 4))
    elif shape == "wide":
        r = draw(st.integers(0, 3))
        c = draw(st.integers(r + 1, 5))
    else:
        r, c = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(small_ints, min_size=c, max_size=c), min_size=r, max_size=r))
    if shape == "full-column-rank":
        for i in range(c):
            rows[i][:i] = [0] * i
            rows[i][i] = draw(small_ints.filter(bool))
        rows = draw(st.permutations(rows))
    if shape == "scaled-rows" and rows:
        i, k = draw(st.integers(0, r - 1)), draw(st.integers(2, 6))
        rows[i] = [k * x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=c)


# -- Smith normal form -------------------------------------------------------


def test_snf_gcd_lcm_oracle():
    # For diag(a, b) the invariant factors are gcd and lcm.
    a, b = 4, 6
    d = snf(IntMatrix.from_rows([[a, 0], [0, b]])).d
    assert (d[0, 0], d[1, 1]) == (math.gcd(a, b), a * b // math.gcd(a, b))


def assert_smith_certificate(m):
    """snf(m) is a Smith form of m, checked on what callers read: d and v.

    d is a nonnegative diagonal divisor chain, v is unimodular, and column j
    of m v is d_j times an integer column q_j (zero when d_j = 0).  The q_j
    with d_j != 0 have maximal minors of gcd 1, so they span a saturated
    lattice of full rank and extend to a unimodular w; u = w^-1 then gives
    u m v = d.
    """
    d, v = snf(m)
    assert (d.rows, d.cols, v.rows, v.cols) == (m.rows, m.cols, m.cols, m.cols)
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    diag = [d[i, i] for i in range(min(m.rows, m.cols))] + [0] * max(m.cols - m.rows, 0)
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert abs(v.det()) == 1
    quotients = []
    for dj, col in zip(diag, (m * v).columns()):
        if dj:
            assert all(x % dj == 0 for x in col)
            quotients.append([x // dj for x in col])
        else:
            assert not any(col)
    minors = [IntMatrix.from_rows([[q[i] for q in quotients] for i in rows]).det()
              for rows in itertools.combinations(range(m.rows), len(quotients))]
    assert math.gcd(*minors) == 1


def test_snf_alternating_example():
    m = M([[0, 3], [-3, 0]])
    f = snf(m)
    assert f.d == IntMatrix.from_rows([[3, 0], [0, 3]])
    assert_smith_certificate(m)


def test_snf_zero_and_identity():
    assert snf(IntMatrix.zeros(2, 3)).d == IntMatrix.zeros(2, 3)
    assert snf(IntMatrix.identity(3)).d == IntMatrix.identity(3)


def test_snf_deterministic():
    m = M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf(m) == snf(m)


@settings(max_examples=200)
@given(st.one_of(matrix_strategy(), shaped_matrix()))
def test_snf_properties(m):
    assert_smith_certificate(m)


@st.composite
def smith_inputs(draw):
    """Up to 7 x 7, in one of four shapes.

    "split" is split_form(B) for a square B of size 1..3; "zero-lines" has
    a zero row and a zero column; "no-units" has no entry +-1, so every
    pivot is at least 2; "any" is any rectangle, 0 to 7 on each side.
    """
    shape = draw(st.sampled_from(("any", "split", "zero-lines", "no-units")))
    if shape == "split":
        g = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(small_ints, min_size=g, max_size=g),
                             min_size=g, max_size=g))
        b = IntMatrix.from_rows(rows, cols=g)
        z = IntMatrix.zeros(g, g)
        return IntMatrix.from_blocks([[z, b], [-b, z]])
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = small_ints
    if shape == "no-units":
        entry = st.sampled_from((-9, -6, -4, -3, -2, 0, 2, 3, 4, 6, 9))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if shape == "zero-lines" and r and c:
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
        rows[i] = [0] * c
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows, cols=c)


@settings(max_examples=500, deadline=None)
@given(smith_inputs())
def test_snf_matches_the_full_loop_entry_for_entry(m):
    # the glue's kernel generators, and so every glue digest, read v
    assert tuple(snf(m)) == snf_reference(m)


@st.composite
def small_square(draw):
    """1x1 to 3x3, entries in [-20, 20]; a third are rank-deficient by construction."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-20, 20)
    shape = draw(st.sampled_from(("any", "repeated-row", "outer")))
    if shape == "outer":
        # rank at most 1: u v^t with |u_i v_j| <= 16
        u = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        v = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        return M([[a * b for b in v] for a in u])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "repeated-row":
        # the last row is -1, 0 or 1 times the first: rank below n
        k = draw(st.integers(-1, 1))
        rows[-1] = [k * x for x in rows[0]]
    return M(rows)


@settings(max_examples=600)
@given(small_square())
def test_snf_diagonal_closed_form_matches_snf(m):
    d = snf(m).d
    assert snf_diagonal(m) == tuple(d[i, i] for i in range(m.rows))


@pytest.mark.parametrize("x", [0, 1, -1, 12, -12, 10 ** 40, -(10 ** 40) - 7])
def test_snf_diagonal_of_1x1_is_snf(x):
    m = M([[x]])
    assert snf_diagonal(m) == (snf(m).d[0, 0],) == (abs(x),)


# -- Hermite normal form -----------------------------------------------------


def test_hnf_is_lower_triangular_with_reduced_entries():
    h = hnf_columns(M([[2, 0], [0, 2], ]) if False else M([[2, 1], [0, 3]]))
    # pivots positive, above-diagonal zero, entries left of diagonal reduced
    for i in range(h.rows):
        assert h[i, i] > 0
        for j in range(i + 1, h.cols):
            assert h[i, j] == 0
        for j in range(i):
            assert 0 <= h[i, j] < h[i, i]


@settings(max_examples=80)
@given(matrix_strategy(3), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), small_ints),
                                    min_size=0, max_size=6))
def test_hnf_basis_independence(m, ops):
    # right-multiplying by a unimodular matrix must not change the column HNF
    n = m.cols
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i < n and j < n and i != j:
            for k in range(n):
                t[k][j] += c * t[k][i]
    tm = IntMatrix.from_rows(t)
    assert hnf_columns(m) == hnf_columns(m * tm)
    assert hnf_columns(hnf_columns(m)) == hnf_columns(m)


# -- Pfaffian ----------------------------------------------------------------


def test_pfaffian_base_cases():
    assert pfaffian(M([[0, 5], [-5, 0]])) == 5
    b = M([[2, 1], [1, 2]])
    form = IntMatrix.from_blocks([[IntMatrix.zeros(2, 2), b], [-b, IntMatrix.zeros(2, 2)]])
    assert abs(pfaffian(form)) == 3  # = det of the symmetric block
    assert pfaffian(form) ** 2 == form.det()


def test_pfaffian_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        pfaffian(M([[0, 1], [1, 0]]))
    with pytest.raises(NotAlternating):
        pfaffian(M([[1, 2], [-2, 0]]))
    with pytest.raises(NotAlternating):
        pfaffian(IntMatrix.zeros(3, 3))


def test_pfaffian_matches_matching_oracle():
    rng = random.Random(7)
    for n in (2, 4, 6):
        for _ in range(20):
            m = random_antisymmetric(rng, n)
            assert pfaffian(m) == pfaffian_oracle(m)


def test_pfaffian_squared_is_det_200_samples():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.choice([2, 4, 6, 8])
        m = random_antisymmetric(rng, n)
        assert pfaffian(m) ** 2 == m.det()


def test_pfaffian_large_uses_elimination():
    rng = random.Random(3)
    for _ in range(5):
        m = random_antisymmetric(rng, 10, bound=4)
        p = pfaffian(m)
        assert p ** 2 == m.det()


def skew_from_upper(n, upper):
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(((i, j) for i in range(n) for j in range(i + 1, n)), upper):
        rows[i][j], rows[j][i] = x, -x
    return IntMatrix.from_rows(rows, cols=n)


# three zeros in four draws, so pivots vanish and the column swap runs
sparse_ints = st.one_of(st.just(0), st.just(0), st.just(0), small_ints)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 4, 6, 8]), st.lists(sparse_ints, min_size=28, max_size=28))
def test_pfaffian_sparse_matches_matching_oracle(n, upper):
    m = skew_from_upper(n, upper)
    assert pfaffian(m) == pfaffian_oracle(m)


@pytest.mark.parametrize("n", [10, 12])
def test_pfaffian_permuted_large(n):
    # Pf(P^t M P) = det(P) Pf(M): checks the sign where the oracle is too slow
    rng = random.Random(n)
    for zeros in (0.0, 0.5, 0.8):
        for _ in range(5):
            m = skew_from_upper(n, [0 if rng.random() < zeros else rng.randint(-4, 4)
                                    for _ in range(n * (n - 1) // 2)])
            perm = rng.sample(range(n), n)
            moved = IntMatrix.from_rows([[m[perm[i], perm[j]] for j in range(n)]
                                         for i in range(n)], cols=n)
            assert pfaffian(moved) == perm_sign(perm) * pfaffian(m)
            assert pfaffian(m) ** 2 == m.det()


def test_pfaffian_block_diagonal_multiplies():
    rng = random.Random(11)
    a = random_antisymmetric(rng, 4)
    b = random_antisymmetric(rng, 6)
    big = IntMatrix.from_blocks([[a, IntMatrix.zeros(4, 6)], [IntMatrix.zeros(6, 4), b]])
    assert pfaffian(big) == pfaffian(a) * pfaffian(b)


# -- kernels and saturation --------------------------------------------------


def test_kernel_basis_sum_map():
    k = kernel_basis(M([[1, 1]]))
    assert k.columns() == [(1, -1)]


def test_kernel_of_injective_map_is_empty():
    k = kernel_basis(M([[1, 0], [0, 1], [1, 1]]))
    assert k.cols == 0


def test_saturate_doubles_down():
    assert saturate(IntMatrix.from_columns([(2, 2)])).columns() == [(1, 1)]


def test_saturate_rejects_dependent_columns():
    with pytest.raises(RankDeficient):
        saturate(IntMatrix.from_columns([(1, 2), (2, 4)]))


@settings(max_examples=60)
@given(matrix_strategy(3), st.integers(2, 6))
def test_kernel_saturated_and_annihilates(m, scale):
    k = kernel_basis(m)
    if k.cols:
        assert m * k == IntMatrix.zeros(m.rows, k.cols)
        assert saturate(k) == k
    assert k.cols == m.cols - rank_over_field(m)
    # scaled rows are not primitive; the kernel must not notice
    assert kernel_basis(m.scaled(scale)) == k


def kernel_basis_via_smith(m):
    """The SNF-then-HNF kernel route that kernel_basis replaced.

    The columns of v past the rank of m span its kernel; their column HNF is
    the canonical basis.
    """
    d, v = snf(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if d[i, i])
    if r == m.cols:
        return IntMatrix.zeros(m.cols, 0)
    return hnf_columns(IntMatrix.from_columns(v.columns()[r:], rows=m.cols))


def saturate_via_rank(l):
    """The rank-then-two-kernels saturation route that saturate replaced."""
    if rank_over_field(l) != l.cols:
        raise RankDeficient("columns are linearly dependent")
    return kernel_basis_via_smith(kernel_basis_via_smith(l.transpose()).transpose())


@settings(max_examples=400, deadline=None)
@given(shaped_matrix())
def test_kernel_basis_matches_smith_route(m):
    assert kernel_basis(m) == kernel_basis_via_smith(m)


@settings(max_examples=400, deadline=None)
@given(st.one_of(shaped_matrix(), shaped_matrix().map(IntMatrix.transpose)))
def test_saturate_matches_rank_route(l):
    try:
        expected = saturate_via_rank(l)
    except RankDeficient as exc:
        with pytest.raises(RankDeficient, match=str(exc)):
            saturate(l)
    else:
        assert saturate(l) == expected


def test_saturate_idempotent():
    l = IntMatrix.from_columns([(2, 4, 6), (0, 3, 3)])
    s = saturate(l)
    assert saturate(s) == s
    # same rational span
    assert rank_over_field(IntMatrix.from_columns(l.columns() + s.columns())) == 2


# -- construction and shape --------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: IntMatrix.from_columns([(1, 2), (3, 4, 5)]),
    lambda: IntMatrix.from_columns([(1, 2, 3), (4, 5)]),
    lambda: IntMatrix.from_columns([(1, 2)], rows=5),
    lambda: IntMatrix.from_rows([[1, 2]], cols=3),
    lambda: IntMatrix.from_rows([[1, 2], [3]]),
], ids=["longer-column", "shorter-column", "rows-hint", "cols-hint", "ragged-rows"])
def test_constructors_reject_bad_shapes(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("entry", [2.5, 2.0, Fraction(2), True, None, "1"],
                         ids=["float", "integral-float", "fraction", "bool", "none", "str"])
@pytest.mark.parametrize("build", [
    lambda x: IntMatrix.from_rows([[x, 0], [0, 1]]),
    lambda x: IntMatrix.from_columns([(x, 0), (0, 1)]),
], ids=["from-rows", "from-columns"])
def test_builders_reject_non_int_entries(build, entry):
    # from_rows([[2.5, 0], [0, 1]]).det() used to return 2.0
    with pytest.raises(ValueError, match="^matrix entries must be int, got "):
        build(entry)


@pytest.mark.parametrize("build, name, size", [
    (lambda: IntMatrix.identity(True), "n", True),
    (lambda: IntMatrix.identity(2.0), "n", 2.0),
    (lambda: IntMatrix.identity(-1), "n", -1),
    (lambda: IntMatrix.zeros(-1, 2), "rows", -1),
    (lambda: IntMatrix.zeros(2, 1.5), "cols", 1.5),
    (lambda: IntMatrix.zeros(2, False), "cols", False),
], ids=["identity-bool", "identity-float", "identity-negative", "zeros-negative-rows",
        "zeros-float-cols", "zeros-bool-cols"])
def test_sized_builders_refuse_sizes_that_are_not_ints_at_least_0(build, name, size):
    # identity(True) built IntMatrix(rows=True, ...), zeros(-1, 2) a -1x2 matrix,
    # and identity(2.0) raised TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an int >= 0, got {size!r}$"):
        build()


def test_empty_shapes_survive_transpose_and_products():
    assert IntMatrix.from_columns([], rows=3) == IntMatrix.zeros(3, 0)
    assert IntMatrix.from_rows([], cols=2) == IntMatrix.zeros(0, 2)
    assert IntMatrix.zeros(0, 3).columns() == [(), (), ()]
    assert IntMatrix.zeros(0, 3).transpose() == IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)
    m = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], rows=2)
    assert m == M([[1, 3, 5], [2, 4, 6]]) and m.transpose().columns() == [(1, 3, 5), (2, 4, 6)]


# -- products ------------------------------------------------------------------


def product_by_column_dots(a, b):
    """Every entry as the dot product of a row of a with a column of b."""
    cols = b.columns()
    return IntMatrix(a.rows, b.cols, tuple(tuple(sum(x * y for x, y in zip(row, col))
                                                 for col in cols) for row in a.entries))


@st.composite
def product_operands(draw):
    """a (r x n) and b (n x c), 0 to 6 of each, every row of a of one kind.

    A row is all zeros, a single 1, or k non-zeros for k from 1 to n, so
    rows fall on both sides of the half-non-zero cutoff and on it; values
    include 1, negatives and, now and then, integers past 64 bits.
    """
    r, n, c = (draw(st.integers(0, 6)) for _ in range(3))
    nonzero = st.one_of(st.just(1), st.integers(-9, 9).filter(bool),
                        st.integers(-2 ** 70, 2 ** 70).filter(bool))
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(("zero", "unit", "k-nonzero")))
        row = [0] * n
        if n and kind == "unit":
            row[draw(st.integers(0, n - 1))] = 1
        elif n and kind == "k-nonzero":
            for j in draw(st.permutations(range(n)))[:draw(st.integers(1, n))]:
                row[j] = draw(nonzero)
        rows.append(row)
    b = draw(st.lists(st.lists(st.one_of(st.just(0), nonzero), min_size=c, max_size=c),
                      min_size=n, max_size=n))
    return IntMatrix.from_rows(rows, cols=n), IntMatrix.from_rows(b, cols=c)


@settings(max_examples=400, deadline=None)
@given(product_operands())
def test_product_matches_column_dots(operands):
    a, b = operands
    assert a * b == product_by_column_dots(a, b)


def test_product_rows_on_each_side_of_the_cutoff():
    b = M([[1, 2, 3], [4, 5, 6], [7, 8, 9], [-1, 0, 2]])
    a = M([[0, 0, 0, 0], [0, 1, 0, 0], [0, -2, 0, 3], [5, -2, 0, 3], [1, 1, 1, 1]])
    assert a * b == M([[0, 0, 0], [4, 5, 6], [-11, -10, -6], [-6, 0, 9], [11, 15, 20]])
    assert a * b == product_by_column_dots(a, b)
    assert IntMatrix.zeros(0, 4) * b == IntMatrix.zeros(0, 3)
    assert a * IntMatrix.zeros(4, 0) == IntMatrix.zeros(5, 0)
    assert IntMatrix.zeros(3, 0) * IntMatrix.zeros(0, 2) == IntMatrix.zeros(3, 2)
    with pytest.raises(ValueError):
        b * a


# -- misc --------------------------------------------------------------------


def test_rank_over_field():
    assert rank_over_field(M([[1, 2], [2, 4]])) == 1
    assert rank_over_field(IntMatrix.identity(3)) == 3


@pytest.mark.parametrize("call, message", [
    (lambda: IntMatrix.from_blocks([[IntMatrix.identity(2), IntMatrix.identity(3)]]),
     "ragged block row"),
    (lambda: IntMatrix.identity(2) + IntMatrix.identity(3), "shape mismatch"),
    (lambda: IntMatrix.identity(2).mul_vec((1, 2, 3)), "vector length mismatch"),
    (lambda: IntMatrix.zeros(2, 3).det(), "determinant needs a square matrix"),
], ids=["ragged-blocks", "add-shapes", "mul-vec-length", "det-not-square"])
def test_int_matrix_rejects_mismatched_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def fraction_det(rows):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, result = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return result


def fraction_inverse(rows):
    """Inverse by Fraction Gauss-Jordan; RankDeficient when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise RankDeficient("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                c = a[i][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(r[n:]) for r in a)


def test_det_bareiss_vs_rational():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        den = rng.randint(1, 9)
        assert Fraction(M(rows).det()) == fraction_det(rows)
        assert RatMatrix(M(rows), den).det() == fraction_det(
            [[Fraction(x, den) for x in r] for r in rows])


def test_inverse_roundtrip():
    m = RatMatrix(M([[2, 1], [1, 1]]))
    assert m * m.inverse() == RatMatrix(IntMatrix.identity(2))
    with pytest.raises(RankDeficient):
        RatMatrix(M([[1, 1], [1, 1]])).inverse()


@pytest.mark.parametrize("rows, det", [
    ([[0, 2, 1], [3, 1, 0], [1, 0, 4]], -25),
    ([[1, 2, 3], [2, 4, 5], [1, 3, 7]], 1),
    ([[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 4, 1], [0, 1, 3, 5]], -1),
    ([[1, 2, 3], [2, 4, 5], [3, 6, 9]], 0),
], ids=["first-step", "middle-step", "middle-step-4x4", "singular-middle-step"])
def test_det_and_inverse_swap_rows_at_a_zero_pivot(rows, det):
    """The pivot of step k is a leading minor up to sign; each case has a zero one."""
    m = M(rows)
    assert m.det() == det == fraction_det(rows)
    if not det:
        with pytest.raises(RankDeficient):
            RatMatrix(m).inverse()
        return
    inv = RatMatrix(m).inverse()
    assert inv.entries == fraction_inverse(rows)
    assert RatMatrix(m) * inv == RatMatrix(IntMatrix.identity(len(rows)))


@st.composite
def sparse_rat_matrix(draw):
    """(rows, den): up to 7x7, three entries in four zero, so pivots swap."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows, draw(st.integers(1, 9))


@settings(max_examples=400, deadline=None)
@given(sparse_rat_matrix())
def test_rat_inverse_matches_fraction_gauss_jordan(probe):
    rows, den = probe
    m = RatMatrix(M(rows), den)
    try:
        want = fraction_inverse([[Fraction(x, den) for x in r] for r in rows])
    except RankDeficient:
        with pytest.raises(RankDeficient):
            m.inverse()
        return
    inv = m.inverse()
    assert inv.entries == want
    assert inv == _rat_rows(want, len(rows))
    assert m * inv == RatMatrix(IntMatrix.identity(len(rows)))


def test_rat_inverse_rejects_non_square():
    with pytest.raises(RankDeficient):
        RatMatrix(IntMatrix.zeros(2, 3)).inverse()


@settings(max_examples=100, deadline=None)
@given(sparse_rat_matrix())
def test_rat_matrix_is_kept_in_lowest_terms(probe):
    rows, den = probe
    m = RatMatrix(M(rows), den)
    assert m.den == math.lcm(*(x.denominator for r in m.entries for x in r))
    assert math.gcd(m.num.entry_gcd(), m.den) == 1
    assert m.entries == tuple(tuple(Fraction(x, den) for x in r) for r in rows)
    # the same value written over a larger denominator is the same matrix
    bigger = RatMatrix(M(rows).scaled(6), 6 * den)
    assert bigger == m and hash(bigger) == hash(m)
    assert _rat_rows(m.entries, len(rows)) == m


def test_rat_matrix_zero_and_denominator_bounds():
    zero = RatMatrix(IntMatrix.zeros(2, 3), 12)
    assert zero.den == 1 and zero == RatMatrix(IntMatrix.zeros(2, 3))
    assert RatMatrix(M([[1, 2]]), 3).scaled(0).den == 1
    for den in (0, -1, -6):
        with pytest.raises(ValueError, match="denominator"):
            RatMatrix(M([[1]]), den)


@pytest.mark.parametrize("den", [True, 2.0, 2.5, Fraction(2)], ids=["bool", "integral-float",
                                                                  "float", "fraction"])
def test_rat_matrix_refuses_a_denominator_that_is_not_an_int(den):
    # True == 1 and 2.0 == 2, so each used to pass as a denominator or fail inside math.gcd
    with pytest.raises(ValueError, match="^denominator must be an int, got "):
        RatMatrix(M([[1]]), den)


def test_rat_matrix_boundary_arithmetic():
    a = _rat_rows([[Fraction(1, 2), 1], [0, Fraction(-2, 3)]], 2)
    b = _rat_rows([[Fraction(1, 3), 0], [1, 1]], 2)
    assert (a.num, a.den) == (M([[3, 6], [0, -4]]), 6)
    assert (a + b).entries == ((Fraction(5, 6), 1), (1, Fraction(1, 3)))
    assert (a - b).entries == ((Fraction(1, 6), 1), (-1, Fraction(-5, 3)))
    assert (a * b).entries == ((Fraction(7, 6), 1), (Fraction(-2, 3), Fraction(-2, 3)))
    assert 2 * a == a * 2 == a.scaled(2) == a + a
    assert a.scaled(Fraction(3, 2)).entries == ((Fraction(3, 4), Fraction(3, 2)), (0, -1))
    assert a.transpose().entries == ((Fraction(1, 2), 0), (1, Fraction(-2, 3)))
    assert a.mul_vec((2, Fraction(3, 2))) == (Fraction(5, 2), -1)
    assert a.det() == Fraction(-1, 3)
    assert not a.is_integral() and a.common_denominator() == 6
    with pytest.raises(ValueError):
        a.to_int()
    assert a.scaled(6).to_int() == M([[3, 6], [0, -4]])


def test_positive_definite():
    assert is_positive_definite(M([[2, 1], [1, 2]]))
    assert not is_positive_definite(M([[1, 2], [2, 1]]))
    assert not is_positive_definite(M([[0, 1], [1, 0]]))
    assert not is_positive_definite(M([[1, 0], [1, 1]]))  # not symmetric


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 2]],
    [[1, 1, 0], [1, 1, 1], [0, 1, 5]],
    # leading minors 1, 0, -4, 12: the last is positive, the second decides
    [[1, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, -3]],
], ids=["first-step", "middle-step", "middle-step-positive-det"])
def test_positive_definite_stops_at_a_zero_pivot(rows):
    assert not is_positive_definite(M(rows))
    assert not sylvester_by_leading_minors(M(rows))


def sylvester_by_leading_minors(m):
    """Every leading principal minor positive, each minor its own determinant."""
    return m.is_symmetric() and all(m.block(0, k, 0, k).det() > 0
                                    for k in range(1, m.rows + 1))


@st.composite
def symmetric_probe(draw):
    """(kind, matrix): 1x1 to 8x8 symmetric matrices from entries in [-6, 6]."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-6, 6)
    kind = draw(st.sampled_from(("symmetric", "gram", "semidefinite", "zero-corner")))
    if kind in ("gram", "semidefinite"):
        # B^t B: positive definite when B has rank n, only semidefinite below
        k = n if kind == "gram" else draw(st.integers(0, n - 1))
        b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        return kind, M([[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    if kind == "zero-corner" and n >= 3:
        # leading minors 0, -b^2, -b^2 c: the first is 0 and the third positive
        b = draw(st.integers(1, 6))
        c = draw(st.integers(-6, -1))
        rows[0][:3] = [0, b, 0]
        rows[1][0], rows[1][2] = b, 0
        rows[2][:3] = [0, 0, c]
    return kind, M(rows)


@settings(max_examples=500, deadline=None)
@given(symmetric_probe())
def test_positive_definite_matches_leading_minors(probe):
    kind, m = probe
    assert is_positive_definite(m) == sylvester_by_leading_minors(m)
    if kind == "semidefinite" or (kind == "zero-corner" and m.rows >= 3):
        assert not is_positive_definite(m)
