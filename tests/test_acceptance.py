"""End-to-end acceptance suite, one verdict line per criterion.

Every test prints "[acceptance] <label>: PASS" or "[acceptance] <label>:
FAIL" through the capture-disabled channel, so the ten verdicts reach the
terminal no matter how pytest captures output.  The criteria pin exact
values; nothing here is approximate or tolerance-based.
"""

import math
import random
import time
from fractions import Fraction

from ppavlab.exact_linalg import IntMatrix, is_positive_definite, pfaffian
from ppavlab.group_actions import (
    action_on_kernel,
    average_pullback,
    closure,
    example_a,
    example_b,
    example_c,
    invariant_form,
    ns_fixed,
    pseudoreflection_generated,
)
from ppavlab.jacobian_feasibility import (
    case31_contradictions,
    pseudoreflection_genus_bound,
    rh_residual,
)
from ppavlab.polarizations import (
    PolarizedTorus,
    box_product,
    is_principal,
    kernel_group,
    polarization_type,
    restrict,
    scale,
    scan_subtorus_types,
    self_intersection,
    theta_g,
    xi_g,
)
from ppavlab.standard_construction import (
    build_standard,
    decompose_glued,
    elementary_divisors,
    verify_glued,
)
from ppavlab.tori import (
    EISENSTEIN,
    GAUSSIAN,
    OrderElem,
    OrderMatrix,
    RATIONAL,
    Torus,
)


A_GRID = tuple((g, m) for g in (1, 2, 3) for m in (2, 3, 4))
ORDER_FOR_UNIT = {2: RATIONAL, 3: EISENSTEIN, 4: GAUSSIAN}


def _verdict(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS")


def test_kernel_types(capsys):
    def body():
        start = time.perf_counter()
        for g in range(1, 7):
            pol = xi_g(g)
            assert polarization_type(pol) == (1,) * (g - 1) + (g + 1,)
            k = kernel_group(pol)
            assert k.order == (g + 1) ** 2
            step = Fraction(1, g + 1)
            diag = tuple(step for _ in range(g))
            zero = tuple(Fraction(0) for _ in range(g))
            assert k.contains(diag + zero) and k.contains(zero + diag)
        assert time.perf_counter() - start < 1.0

    _verdict(capsys, "kernel-types", body)


def test_group_orders(capsys):
    def body():
        for g, m in A_GRID:
            assert example_a(g, m)[0].order == m ** g * math.factorial(g)
        for g in (1, 2, 3, 4):
            assert example_b(g)[0].order == math.factorial(g + 1)
        assert example_c()[0].order == 16

    _verdict(capsys, "group-orders", body)


def test_reflection_generation(capsys):
    def body():
        for g, m in A_GRID:
            assert pseudoreflection_generated(example_a(g, m)[0])[0]
        for g in (1, 2, 3, 4):
            assert pseudoreflection_generated(example_b(g)[0])[0]
        assert pseudoreflection_generated(example_c()[0])[0]
        negation = closure([OrderMatrix.scalar(RATIONAL, 2, OrderElem(-1, 0))])
        assert not pseudoreflection_generated(negation)[0]

    _verdict(capsys, "reflection-generation", body)


def test_invariant_forms(capsys):
    def body():
        for g, m in A_GRID:
            grp, pol = example_a(g, m)
            assert invariant_form(grp, pol)
        for g in (1, 2, 3, 4):
            grp, pol = example_b(g)
            assert invariant_form(grp, pol)
        grp, pol = example_c()
        assert invariant_form(grp, pol)
        # rank-one fixed parts with the packaged forms as primitive generators
        for g in (2, 3):
            for m in (2, 3, 4):
                rank, forms = ns_fixed(example_a(g, m)[0])
                assert rank == 1
                assert forms[0] == theta_g(g, ORDER_FOR_UNIT[m]).form
            rank, forms = ns_fixed(example_b(g)[0])
            assert rank == 1
            assert forms[0] == xi_g(g).form

    _verdict(capsys, "invariant-forms", body)


def test_standard_construction(capsys):
    def body():
        for factors, y_dim in (((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 3), 1)):
            glued = build_standard(factors, y_dim)
            report = verify_glued(glued)
            assert report.all_passed, report.first_failure
            checks = dict(report.checks)
            assert checks["action-preserves-form"]
            assert checks["graph-action-trivial"]
            assert abs(pfaffian(glued.form)) == 1
            expected_index = math.prod(g + 1 for g in factors) ** 2
            assert report.overlattice_index == expected_index
            dec = decompose_glued(glued)
            x_pol = None
            for g in factors:
                x_pol = xi_g(g) if x_pol is None else box_product(x_pol, xi_g(g))
            assert dec.x_type == polarization_type(x_pol)
            divisors = elementary_divisors([g + 1 for g in factors])
            assert dec.y_type == (1,) * (y_dim - len(divisors)) + divisors

    _verdict(capsys, "standard-construction", body)


def test_kernel_products(capsys):
    def random_pd(g, rng):
        while True:
            rows = [[0] * g for _ in range(g)]
            for i in range(g):
                rows[i][i] = rng.randint(1, 5)
                for j in range(i + 1, g):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            b = IntMatrix.from_rows(rows, cols=g)
            if is_positive_definite(b):
                z = IntMatrix.zeros(g, g)
                form = IntMatrix.from_blocks([[z, b], [-b, z]])
                return PolarizedTorus(Torus(RATIONAL, g), form)

    def body():
        rng = random.Random(0)
        for _ in range(50):
            p = random_pd(rng.randint(1, 3), rng)
            q = random_pd(rng.randint(1, 3), rng)
            box = box_product(p, q)
            orders = kernel_group(p).order * kernel_group(q).order
            assert kernel_group(box).order == orders
            merged = elementary_divisors(
                list(polarization_type(p)) + list(polarization_type(q)))
            box_chain = tuple(d for d in polarization_type(box) if d > 1)
            assert box_chain == merged

    _verdict(capsys, "kernel-products", body)


def test_kernel_fixedness(capsys):
    def body():
        grp_c, pol_c = example_c()
        prim, mult = average_pullback(grp_c, theta_g(2, GAUSSIAN))
        assert mult == 16
        k = kernel_group(prim)
        half = Fraction(1, 2)
        assert k.order == 4
        assert k.contains((half, 0, half, 0))
        assert k.contains((0, half, 0, half))
        assert prim.form == pol_c.form
        got = {}
        for m in (2, 3):
            grp, pol = example_a(2, m)
            got[f"a-2-{m}"] = action_on_kernel(grp, kernel_group(scale(pol, m)))
        got["c"] = action_on_kernel(grp_c, kernel_group(pol_c))
        # The kernel of example_c is E[1+i]^2, spanned by (1+i)/2 * e_j.  Every
        # element of the group is the identity mod (1+i): Z[i]/(1+i) = F_2
        # and a + bi reduces to (a + b) mod 2.  A matrix M = I + (1+i)N sends
        # (1+i)/2 * v to itself plus (1+i)^2/2 * Nv = i*Nv, a lattice vector,
        # so the whole group fixes the kernel pointwise.  An element is stored
        # as its action [[A, -B], [B, A]] on the Z-basis, so its O-entry
        # (i, j) is a + bi with a = e[i, j] and b = e[2 + i, j].
        for e in grp_c.elements:
            assert all((e[i, j] + e[2 + i, j] - (i == j)) % 2 == 0
                       for i in range(2) for j in range(2))
        for rho in grp_c.generators:
            for x in k.generators:
                moved = [sum(Fraction(rho[i, j]) * x[j] for j in range(4)) - x[i]
                         for i in range(4)]
                assert all(c.denominator == 1 for c in moved)
        assert got == {"a-2-2": False, "a-2-3": False, "c": True}

    _verdict(capsys, "kernel-fixedness", body)


def test_no_principal_restriction(capsys):
    def body():
        start = time.perf_counter()
        for n in (2, 3):
            found = scan_subtorus_types(n, 3)
            assert found
            assert all(any(d > 1 for d in r.type) for r in found)
        diag = IntMatrix.from_columns([[1, 1, 0, 0], [0, 0, 1, 1]], rows=4)
        restricted = restrict(xi_g(2), diag)
        assert not is_principal(restricted)
        assert polarization_type(restricted) == (6,)
        assert time.perf_counter() - start < 10.0

    _verdict(capsys, "no-principal-restriction", body)


def test_cover_arithmetic(capsys):
    def body():
        assert rh_residual(2, 1, 2) == 2
        assert rh_residual(3, 2, 2) == 0
        bound = pseudoreflection_genus_bound()
        assert bound.g_max == 3
        assert bound.cases == ((3, 2), (3, 1), (3, 0), (2, 1), (2, 0))
        report = case31_contradictions()
        klein = next(e for e in report.eliminations if e.group_order == 4)
        sym3 = next(e for e in report.eliminations if e.group_order == 6)
        assert klein.witnesses == (16, 4) and klein.witnesses[0] > klein.witnesses[1]
        assert sym3.witnesses == (-2,)

    _verdict(capsys, "cover-arithmetic", body)


def test_intersection_degrees(capsys):
    def body():
        for g in range(1, 6):
            base = math.factorial(g)
            theta, xi = theta_g(g), xi_g(g)
            assert self_intersection(theta) == base
            assert self_intersection(xi) == base * (g + 1)
            # the Pfaffian route must agree with the type-product route
            assert base * math.prod(polarization_type(theta)) == base
            assert base * math.prod(polarization_type(xi)) == base * (g + 1)

    _verdict(capsys, "intersection-degrees", body)
