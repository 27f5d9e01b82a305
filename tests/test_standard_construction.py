"""Kernel gluing: symplectic bases, the glued overlattice, and decomposition."""

import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pfaffian, weil_pairing
from ppavlab import cli, exact_linalg, group_actions, polarizations, standard_construction, tori
from ppavlab.exact_linalg import IntMatrix, RatMatrix, kernel_basis, snf_diagonal
from ppavlab.group_actions import (
    _close,
    example_b,
    example_c,
    fixed_sublattice,
    group_from_json,
    group_to_json,
    pseudoreflection_generated,
)
from ppavlab.polarizations import (
    FiniteSymplecticGroup,
    PolarizedTorus,
    alternating_type,
    block_sum,
    box_product,
    kernel_group,
    polarization_from_json,
    polarization_to_json,
    polarization_type,
    scale,
    split_form,
    theta_g,
    xi_g,
)
from ppavlab.standard_construction import (
    FACTOR_PRODUCT_LIMIT,
    DegeneratePairing,
    GluedPPAV,
    InvalidGlue,
    SymplecticBasis,
    TypeMismatch,
    _factor_generators,
    _side_forms,
    build_standard,
    decompose_glued,
    elementary_divisors,
    glued_from_json,
    glued_to_json,
    symplectic_basis,
    verify_glued,
)
from ppavlab.tori import OrderMismatch, RATIONAL, Torus

GRID = (((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 3), 1))
CHECK_NAMES = ("form-integral", "form-alternating", "form-unimodular", "form-positive",
               "complex-structure", "action-preserves-form", "action-commutes-structure",
               "graph-action-trivial", "x-action-reflections", "overlattice-index")


def _rebuilt(glued, **changes):
    """A new glue with the given fields replaced, through GluedPPAV's own checks."""
    fields = {name: getattr(glued, name)
              for name in ("factors", "y_dim", "overlattice", "form", "actions", "graph")}
    return GluedPPAV(**{**fields, **changes})


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


@pytest.mark.parametrize("moduli", [[2.0, 3], [True, 4], [2, Fraction(3)], ["2"], [-1]],
                         ids=["float", "bool", "fraction", "string", "negative"])
def test_elementary_divisors_rejects_non_int_moduli(moduli):
    # unchecked, [2.0, 3] raises TypeError in math.gcd and [True, 4] gives (4,)
    with pytest.raises(ValueError, match="integers >= 1"):
        elementary_divisors(moduli)


def _diagonal(values):
    return IntMatrix.from_rows([[x if i == j else 0 for j in range(len(values))]
                                for i, x in enumerate(values)])


@settings(max_examples=300)
@given(st.lists(st.integers(1, 60), max_size=8))
def test_elementary_divisors_is_the_smith_form_of_the_diagonal(moduli):
    smith = snf_diagonal(_diagonal(moduli)) if moduli else ()
    assert elementary_divisors(moduli) == tuple(d for d in smith if d != 1)


CORE = {f"ppavlab.{name}" for name in
        ("tori", "exact_linalg", "polarizations", "group_actions", "standard_construction")}


def _record_entry_checks(monkeypatch):
    """Patch every module's `_require_entries` to record (site, name) per call.

    The site is the value type whose constructor or builder called it, or
    `contains` for a kernel group's membership test; an
    `IntMatrix` builder called from inside the five core modules is recorded
    as ("internal", caller) so that the assertions below name it.
    """
    real = exact_linalg._require_entries
    owners = {tori.OrderMatrix.__init__.__code__: "OrderMatrix",
              PolarizedTorus.__init__.__code__: "PolarizedTorus",
              GluedPPAV.__init__.__code__: "GluedPPAV",
              FiniteSymplecticGroup.contains.__code__: "contains"}
    builders = {IntMatrix.from_rows.__func__.__code__, IntMatrix.from_columns.__func__.__code__}
    calls = []

    def recording(name, grid, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code in builders:
            caller = frame.f_back
            site = (("internal", caller.f_code.co_name)
                    if caller.f_globals["__name__"] in CORE else "IntMatrix builder")
        else:
            site = owners.get(frame.f_code, ("unknown", frame.f_code.co_name))
        calls.append((site, name))
        return real(name, grid, *args, **kwargs)

    for module in (exact_linalg, tori, polarizations, group_actions, standard_construction):
        if hasattr(module, "_require_entries"):
            monkeypatch.setattr(module, "_require_entries", recording)
    return calls


def test_internal_matrices_skip_the_entry_check(monkeypatch, capsys):
    # each value type checks its own entries: the O-matrix, polarized torus
    # and glue constructors, a kernel group's membership test on its vector,
    # and the IntMatrix builders
    # when an outside caller (the registry's random forms) uses them; the
    # library's own products, blocks, normal forms, invariant forms,
    # rational_rep and loaders use the direct constructor
    calls = _record_entry_checks(monkeypatch)
    allowed = {"OrderMatrix", "PolarizedTorus", "GluedPPAV", "contains", "IntMatrix builder"}
    group_actions.example_a.cache_clear()
    group_actions.example_b.cache_clear()
    group_actions.example_c.cache_clear()
    cli.main(["run"])
    capsys.readouterr()
    assert {site for site, _ in calls} == allowed
    del calls[:]
    glued = build_standard((2, 3), 1)
    names = [name for site, name in calls if site == "GluedPPAV"]
    assert names == ["form", *(f"actions[{i}]" for i in range(len(glued.actions))), "graph"]
    # the X side's permutation generators are O-matrices
    assert {site for site, _ in calls} == {"OrderMatrix", "PolarizedTorus", "GluedPPAV"}
    del calls[:]
    verify_glued(glued)
    decompose_glued(glued)
    assert calls == []
    # a JSON round trip checks each loaded field once, in its value type: the
    # glue's form, actions and graph (the overlattice's entries are ints by
    # parsing), a polarization's form, and each group element's O-entries
    text = glued_to_json(glued)
    assert calls == []
    assert glued_from_json(text) == glued
    assert calls == [("GluedPPAV", name) for name in names]
    for p in (xi_g(3), example_c()[1]):
        del calls[:]
        assert polarization_from_json(polarization_to_json(p)) == p
        assert calls == [("PolarizedTorus", "form")]
    for grp in (example_b(2)[0], example_c()[0]):
        del calls[:]
        back = group_from_json(group_to_json(grp))
        assert calls == [("OrderMatrix", "O-entry")] * grp.order
        assert set(back.elements) == set(grp.elements)


# -- symplectic bases ----------------------------------------------------------


def test_symplectic_basis_refuses_a_generator_off_the_exponents_grid():
    # 1/3 is not a multiple of 1/2, e = lcm(2, 2); int(c * e) floored it and
    # returned a basis of orders (2,)
    ambient = kernel_group(xi_g(1)).ambient
    k = FiniteSymplecticGroup(ambient, ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(1, 2))),
                              (2, 2))
    with pytest.raises(ValueError, match=r"^generator 0, \(1/2, 1/3\), has an entry off the grid"):
        symplectic_basis(k)


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
    PolarizedTorus(Torus(RATIONAL, 3), split_form(_diagonal([2, 4, 12]))),
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


def _symplectic_basis_by_fractions(k):
    """The reduction with every pairing taken through the form, as Fractions,
    projecting the whole element pool onto each complement."""
    m = k.ambient.form
    e = math.lcm(*k.orders)
    gens = IntMatrix.from_columns([[int(c * e) for c in gen] for gen in k.generators],
                                  rows=m.rows)

    def order(v):
        return e // math.gcd(e, *v)

    def pair(v, w):
        return (sum(a * b for a, b in zip(v, m.mul_vec(w))) // e) % e

    pool = [v for v in (tuple(x % e for x in gens.mul_vec(c))
                        for c in itertools.product(*map(range, k.orders))) if any(v)]
    collected = []
    while pool:
        x = max(pool, key=order)
        d = order(x)
        step = e // d
        y = next((c for c in pool if e // math.gcd(e, pair(x, c)) == d), None)
        if y is None:
            raise DegeneratePairing(f"no partner of order {d} in the pairing")
        t = pow(pair(x, y) // step, -1, d)
        y = tuple(t * c % e for c in y)
        collected.append(((x, y), d))
        fresh = set()
        for z in pool:
            a_co = -(pair(y, z) // step) % d
            b_co = pair(x, z) // step % d
            w = tuple((zc - a_co * xc - b_co * yc) % e for zc, xc, yc in zip(z, x, y))
            if any(w):
                fresh.add(w)
        pool = sorted(fresh)
    collected.reverse()
    pairs = tuple(tuple(tuple(Fraction(c, e) for c in v) for v in pq)
                  for pq, _ in collected)
    orders = tuple(d for _, d in collected)
    if any(nxt % prev for prev, nxt in zip(orders, orders[1:])):
        raise DegeneratePairing(f"orders {orders} do not form a divisor chain")
    for j, (xj, yj) in enumerate(pairs):
        for l, (xl, yl) in enumerate(pairs):
            want = Fraction(1, orders[j]) if j == l else Fraction(0)
            if (weil_pairing(k, xj, yl) != want or weil_pairing(k, xj, xl)
                    or weil_pairing(k, yj, yl)):
                raise DegeneratePairing("reduced pairs are not a symplectic basis")
    return SymplecticBasis(pairs, orders)


def _outcome(reduce, k):
    try:
        return reduce(k)
    except DegeneratePairing as exc:
        return ("DegeneratePairing", str(exc))


def _glue_cases():
    """The benchmark's GLUE_CASES, read from perfbench/workloads.py."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.GLUE_CASES


def _side_tori(factors, y_dim):
    """X and Y of a glue as validated tori: the box product of the xi_g, and Y."""
    divisors = elementary_divisors([g + 1 for g in factors])
    diag = (1,) * (y_dim - len(divisors)) + divisors
    return (box_product(*map(xi_g, factors)),
            PolarizedTorus(Torus(RATIONAL, y_dim), split_form(_diagonal(diag))))


def _reversed(k):
    return FiniteSymplecticGroup(k.ambient, k.generators[::-1], k.orders[::-1])


def _oracle_kernels():
    """Kernels of the glue sides, the named forms, and two that do not reduce."""
    for factors, y_dim in GRID + _glue_cases():
        x_pol, y_pol = _side_tori(factors, y_dim)
        yield f"x{factors}", kernel_group(x_pol)
        yield f"y{factors}-{y_dim}", kernel_group(y_pol)
    for g in range(1, 6):
        yield f"xi{g}", kernel_group(xi_g(g))
    for a, b in ((1, 1), (1, 2), (2, 2), (3, 1), (2, 4), (1, 5)):
        yield f"xi{a}-xi{b}", kernel_group(box_product(xi_g(a), xi_g(b)))
    yield "6theta2", kernel_group(scale(theta_g(2), 6))
    yield "split-2-4-12", kernel_group(
        PolarizedTorus(Torus(RATIONAL, 3), split_form(_diagonal([2, 4, 12]))))
    k = kernel_group(xi_g(2))
    yield "isotropic", FiniteSymplecticGroup(k.ambient, (k.generators[0],), (k.orders[0],))
    # dependent generators list every element twice or more
    yield "xi2-twice", FiniteSymplecticGroup(k.ambient, k.generators * 2, k.orders * 2)
    # the largest order comes first, so x is not the last generator
    yield "split-2-4-12-reversed", _reversed(kernel_group(
        PolarizedTorus(Torus(RATIONAL, 3), split_form(_diagonal([2, 4, 12])))))
    # twice the generators of the (Z/4)^2 kernel of 4·theta_1 span an
    # isotropic (Z/2)^2
    k = kernel_group(scale(theta_g(1), 4))
    yield "4theta1-half", FiniteSymplecticGroup(
        k.ambient, tuple(tuple(2 * c % 1 for c in gen) for gen in k.generators), (2, 2))


def test_symplectic_basis_matches_fraction_pairing():
    outcomes = {}
    for name, k in _oracle_kernels():
        got, want = _outcome(symplectic_basis, k), _outcome(_symplectic_basis_by_fractions, k)
        assert got == want, name
        outcomes[name] = want
    assert {name: o for name, o in outcomes.items() if not isinstance(o, SymplecticBasis)} == {
        "isotropic": ("DegeneratePairing", "no partner of order 3 in the pairing"),
        "4theta1-half": ("DegeneratePairing", "no partner of order 2 in the pairing")}


def _gram_plus_one(rows, g):
    c = IntMatrix.from_rows(rows, cols=g)
    return c.transpose() * c + IntMatrix.identity(g)


@st.composite
def split_forms(draw, max_det):
    """split_form(C^t·C + I) for C with g <= 4 columns and entries in [-5, 5].

    An entry that would lift det(C^t·C + I) above max_det is set to 0, so
    the kernel, of order det^2, stays small enough for the oracle to list.
    """
    g = draw(st.integers(1, 4))
    rows = [[0] * g for _ in range(draw(st.integers(1, g)))]
    for row in rows:
        for j in range(g):
            row[j] = draw(st.integers(-5, 5))
            if _gram_plus_one(rows, g).det() > max_det:
                row[j] = 0
    return PolarizedTorus(Torus(RATIONAL, g), split_form(_gram_plus_one(rows, g)))


@st.composite
def box_products_of_split_forms(draw, max_det):
    p = draw(split_forms(8))
    # the form of p has det(C^t·C + I)^2
    return box_product(p, draw(split_forms(max_det // math.isqrt(p.form.det()))))


@settings(max_examples=60, deadline=None)
@given(split_forms(40), st.booleans())
def test_symplectic_basis_matches_projection_oracle_on_random_forms(pol, reverse):
    k = _reversed(kernel_group(pol)) if reverse else kernel_group(pol)
    assert _outcome(symplectic_basis, k) == _outcome(_symplectic_basis_by_fractions, k)


@settings(max_examples=60, deadline=None)
@given(box_products_of_split_forms(48), st.booleans())
def test_symplectic_basis_matches_projection_oracle_on_box_products(pol, reverse):
    k = _reversed(kernel_group(pol)) if reverse else kernel_group(pol)
    assert _outcome(symplectic_basis, k) == _outcome(_symplectic_basis_by_fractions, k)


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
    assert tuple(name for name, _ in report.checks) == CHECK_NAMES


def test_x_action_reflections_matches_closed_product_group():
    # verify_glued decides the check on the stored generators; closing the
    # block product of the factors and counting its pseudoreflections is
    # the independent route
    for factors in ((1,), (2,), (1, 1), (2, 3), (1, 1, 1, 1)):
        y_dim = len(elementary_divisors([g + 1 for g in factors]))
        report = verify_glued(build_standard(factors, y_dim))
        x_dim = sum(factors)
        product = _close(Torus(RATIONAL, x_dim),
                         tuple(_factor_generators(factors, 0)), cap=10 ** 6)  # X alone
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


def test_build_rejects_factor_product_over_limit_fast():
    # nine factors of 1 have prod(g + 1) = 512; the kernel pool alone would
    # run for minutes, so the limit is checked before any work
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"FACTOR_PRODUCT_LIMIT = {FACTOR_PRODUCT_LIMIT}"):
        build_standard((1,) * 9, 9)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("factors, y_dim, named", [
    ([1.9], 1, "factor_genera"),
    ([2.0], 1, "factor_genera"),
    (["2"], 1, "factor_genera"),
    ([True], 1, "factor_genera"),
    ([1, None], 2, "factor_genera"),
    ([1], 1.0, "y_dim"),
    ([1], "1", "y_dim"),
    ([1], True, "y_dim"),
], ids=["float-factor", "integral-float-factor", "string-factor", "bool-factor",
        "none-factor", "float-y-dim", "string-y-dim", "bool-y-dim"])
def test_build_rejects_non_integer_sizes(factors, y_dim, named):
    # int() used to truncate the factors ([1.9] built (1,), ["2"] built (2,));
    # a float or string y_dim raised TypeError, and True built with y_dim 1
    with pytest.raises(ValueError, match=named):
        build_standard(factors, y_dim)


def test_build_returns_only_verified_glues(monkeypatch):
    # one identity action too many breaks only the one-action-per-generator
    # count, which build_standard itself never checks
    real = standard_construction._factor_generators
    monkeypatch.setattr(standard_construction, "_factor_generators", lambda factors, y_dim: [
        *real(factors, y_dim), IntMatrix.identity(2 * (sum(factors) + y_dim))])
    with pytest.raises(InvalidGlue, match="x-action-reflections"):
        build_standard([2], 1)


def _glue_outcome(factors, y_dim):
    glued = build_standard(factors, y_dim)
    return glued, verify_glued(glued), decompose_glued(glued)


def test_glue_path_closes_no_group(monkeypatch):
    # a glue needs each factor's generators, not the (g + 1)! elements of
    # S_{g+1}; with every closure refused, build, verify and decompose
    # still give the same glues
    cases = GRID + _glue_cases()
    want = [_glue_outcome(*case) for case in cases]
    example_b.cache_clear()

    def refuse(*args):
        raise AssertionError("a glue operation closed a group")

    monkeypatch.setattr(group_actions, "_close", refuse)
    assert [_glue_outcome(*case) for case in cases] == want


def test_factor_generators_are_example_b_generators():
    # the route the glue took when it read the generators off the closed group
    def via_example_b(factors, y_dim):
        eye = [IntMatrix.identity(2 * g) for g in (*factors, y_dim)]
        return [block_sum(eye[:f] + [b] + eye[f + 1:])
                for f, g in enumerate(factors) for b in example_b(g)[0].generators]

    cases = [((g,), 1) for g in range(1, 7)] + list(GRID + _glue_cases())
    for factors, y_dim in cases:
        assert _factor_generators(factors, y_dim) == via_example_b(factors, y_dim), factors


@pytest.mark.parametrize("g", [8, 12])
def test_build_factors_past_the_closure_cap(g):
    # closing S_{g+1} took 362,880 elements at g = 8 and passed the 10^6
    # closure cap from g = 9 on; the glue reads only the g generators
    glued = build_standard((g,), 1)
    assert verify_glued(glued).checks == tuple((name, True) for name in CHECK_NAMES)
    assert decompose_glued(glued).x_type == (1,) * (g - 1) + (g + 1,)


def test_sides_product_form_is_the_box_product_form():
    # build_standard and verify_glued take the product form as block_sum of
    # the factor forms; box_product of the validated tori is the other route
    for factors, y_dim in GRID + _glue_cases():
        divisors = elementary_divisors([g + 1 for g in factors])
        forms = _side_forms(factors, y_dim, divisors)
        assert block_sum(forms) == box_product(*_side_tori(factors, y_dim)).form
        assert block_sum(forms[:-1]) == _side_tori(factors, y_dim)[0].form


def test_non_integral_lift_fails_action_preserves_form(monkeypatch):
    # -1 on X moves each graph vector (t, u) by (-2t, 0), off the product
    # lattice, so its lift is not integral; it is stored as c·r, c >= 2
    real = standard_construction._factor_generators

    def with_minus_x(factors, y_dim):
        gx = sum(factors)
        minus_x = block_sum([IntMatrix.identity(2 * gx).scaled(-1), IntMatrix.identity(2 * y_dim)])
        return [minus_x, *real(factors, y_dim)[1:]]

    monkeypatch.setattr(standard_construction, "_factor_generators", with_minus_x)
    with pytest.raises(InvalidGlue, match="action-preserves-form"):
        build_standard((2,), 1)


def _refuse(*args, **kwargs):
    raise AssertionError("the gate built the product or a torus")


def test_gate_builds_no_box_product_and_no_y_torus(monkeypatch):
    # the gate reads the product form off the factor forms: with box_product
    # and PolarizedTorus refused in this module and PolarizedTorus refused
    # in polarizations, where xi_g would build one, it gives the same reports
    glues = [build_standard(*case) for case in GRID + _glue_cases()]
    want = [verify_glued(glued) for glued in glues]
    for name in ("box_product", "PolarizedTorus"):
        # raising=False: the module does not import box_product at all
        monkeypatch.setattr(standard_construction, name, _refuse, raising=False)
    monkeypatch.setattr(polarizations, "PolarizedTorus", _refuse)
    # a copy is a new glue, so its report is derived again
    assert [verify_glued(_rebuilt(glued)) for glued in glues] == want


def test_report_is_kept_on_the_glue(monkeypatch):
    # the report is derived once per glue object, not looked up in a
    # process-wide memo keyed by the glue's value
    assert not hasattr(verify_glued, "cache_info")
    glued = build_standard((2, 3), 1)
    assert verify_glued(glued) is verify_glued(glued)
    calls = []
    real = standard_construction.reflection_rank
    monkeypatch.setattr(standard_construction, "reflection_rank",
                        lambda r: calls.append(r) or real(r))
    assert decompose_glued(glued).y_basis == verify_glued(glued).fixed_basis
    assert calls == []
    # an equal glue loaded from its JSON text is a new object: the gate runs
    # on it, once, whatever the original's report
    loaded = glued_from_json(glued_to_json(glued))
    assert loaded == glued
    assert calls == list(glued.actions)
    assert verify_glued(loaded) == verify_glued(glued)
    assert verify_glued(loaded) is not verify_glued(glued)
    assert calls == list(glued.actions)


def test_decompose_reads_the_gate_s_fixed_sublattice(monkeypatch):
    glues = [build_standard(*case) for case in GRID + _glue_cases()]
    reports = [verify_glued(glued) for glued in glues]
    calls = []
    real = standard_construction.fixed_sublattice
    monkeypatch.setattr(standard_construction, "fixed_sublattice",
                        lambda *args: calls.append(args) or real(*args))
    for glued, report in zip(glues, reports):
        assert decompose_glued(glued).y_basis == report.fixed_basis
    assert calls == []


def test_build_principal_form_frozen_small():
    glued = build_standard([1], 1)
    assert glued.form.rows == 4
    assert abs(pfaffian(glued.form)) == 1
    assert glued.overlattice.den == 2


# -- verification of corrupted inputs ----------------------------------------------


def test_verify_detects_perturbed_form():
    glued = build_standard([2], 1)
    rows = [list(r) for r in glued.form.entries]
    rows[0][1] += 1
    bad = _rebuilt(
        glued, form=IntMatrix.from_rows(rows, cols=len(rows)))
    report = verify_glued(bad)
    assert report.first_failure in ("form-integral", "form-alternating")
    with pytest.raises(InvalidGlue):
        decompose_glued(bad)


def test_verify_detects_bad_action():
    glued = build_standard([1], 1)
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    bad = _rebuilt(
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
    yield "form-pair", _rebuilt(
        glued, form=_shifted(glued.form, [(0, 1, 1), (1, 0, -1)]))
    yield "form-entry", _rebuilt(
        glued, form=_shifted(glued.form, [(0, 1, 1)]))
    yield "form-double", _rebuilt(glued, form=glued.form.scaled(2))
    yield "action-shear", _rebuilt(
        glued, actions=(_shifted(IntMatrix.identity(n2), [(0, 1, 1)]),))
    yield "action-square", _rebuilt(
        glued, actions=tuple(r * r for r in acts))
    if len(acts) >= 2:
        yield "action-product", _rebuilt(
            glued, actions=(acts[0] * acts[1],))
    yield "overlattice-half", _rebuilt(
        glued, overlattice=glued.overlattice.scaled(Fraction(1, 2)))
    yield "overlattice-identity", _rebuilt(
        glued, overlattice=RatMatrix(IntMatrix.identity(n2)))
    yield "graph-triple", _rebuilt(
        glued, graph=tuple(tuple(3 * c for c in gamma) for gamma in glued.graph))
    yield "overlattice-zero", _rebuilt(
        glued, overlattice=glued.overlattice.scaled(0))
    yield "actions-empty", _rebuilt(glued, actions=())


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


# verdicts of each benchmark glue as built and under each corruption, in
# report order (1 = passed), with the first failure
GLUE_CASE_VERDICTS = {
    ((3, 3), 'built'): ('1111111111', None),
    ((3, 3), 'form-pair'): ('0110001111', 'form-integral'),
    ((3, 3), 'form-entry'): ('0000001111', 'form-integral'),
    ((3, 3), 'form-double'): ('0101111111', 'form-integral'),
    ((3, 3), 'action-shear'): ('1111100101', 'action-preserves-form'),
    ((3, 3), 'action-square'): ('1111111111', None),
    ((3, 3), 'action-product'): ('1111111101', 'x-action-reflections'),
    ((3, 3), 'overlattice-half'): ('0111111110', 'form-integral'),
    ((3, 3), 'overlattice-identity'): ('0110010010', 'form-integral'),
    ((3, 3), 'graph-triple'): ('1111111111', None),
    ((3, 3), 'overlattice-zero'): ('0110010010', 'form-integral'),
    ((3, 3), 'actions-empty'): ('1111111101', 'x-action-reflections'),
    ((2, 2, 2), 'built'): ('1111111111', None),
    ((2, 2, 2), 'form-pair'): ('0110001111', 'form-integral'),
    ((2, 2, 2), 'form-entry'): ('0000001111', 'form-integral'),
    ((2, 2, 2), 'form-double'): ('0101111111', 'form-integral'),
    ((2, 2, 2), 'action-shear'): ('1111100101', 'action-preserves-form'),
    ((2, 2, 2), 'action-square'): ('1111111111', None),
    ((2, 2, 2), 'action-product'): ('1111111101', 'x-action-reflections'),
    ((2, 2, 2), 'overlattice-half'): ('0111111110', 'form-integral'),
    ((2, 2, 2), 'overlattice-identity'): ('0110010010', 'form-integral'),
    ((2, 2, 2), 'graph-triple'): ('1111111110', 'overlattice-index'),
    ((2, 2, 2), 'overlattice-zero'): ('0110010010', 'form-integral'),
    ((2, 2, 2), 'actions-empty'): ('1111111101', 'x-action-reflections'),
    ((1, 1, 1, 1), 'built'): ('1111111111', None),
    ((1, 1, 1, 1), 'form-pair'): ('0110001111', 'form-integral'),
    ((1, 1, 1, 1), 'form-entry'): ('0000001111', 'form-integral'),
    ((1, 1, 1, 1), 'form-double'): ('0101111111', 'form-integral'),
    ((1, 1, 1, 1), 'action-shear'): ('1111100001', 'action-preserves-form'),
    ((1, 1, 1, 1), 'action-square'): ('1111111111', None),
    ((1, 1, 1, 1), 'action-product'): ('1111111101', 'x-action-reflections'),
    ((1, 1, 1, 1), 'overlattice-half'): ('0111111110', 'form-integral'),
    ((1, 1, 1, 1), 'overlattice-identity'): ('0111110010', 'form-integral'),
    ((1, 1, 1, 1), 'graph-triple'): ('1111111111', None),
    ((1, 1, 1, 1), 'overlattice-zero'): ('0110010010', 'form-integral'),
    ((1, 1, 1, 1), 'actions-empty'): ('1111111101', 'x-action-reflections'),
    ((2, 3), 'built'): ('1111111111', None),
    ((2, 3), 'form-pair'): ('0110001111', 'form-integral'),
    ((2, 3), 'form-entry'): ('0000001111', 'form-integral'),
    ((2, 3), 'form-double'): ('0101111111', 'form-integral'),
    ((2, 3), 'action-shear'): ('1111100101', 'action-preserves-form'),
    ((2, 3), 'action-square'): ('1111111111', None),
    ((2, 3), 'action-product'): ('1111111101', 'x-action-reflections'),
    ((2, 3), 'overlattice-half'): ('0111111110', 'form-integral'),
    ((2, 3), 'overlattice-identity'): ('0110010010', 'form-integral'),
    ((2, 3), 'graph-triple'): ('1111111110', 'overlattice-index'),
    ((2, 3), 'overlattice-zero'): ('0110010010', 'form-integral'),
    ((2, 3), 'actions-empty'): ('1111111101', 'x-action-reflections'),
}


def test_glue_case_checks_pinned():
    seen = {}
    for factors, y_dim in _glue_cases():
        glued = build_standard(factors, y_dim)
        for name, probe in [("built", glued), *_corrupted(glued)]:
            report = verify_glued(probe)
            seen[factors, name] = (report.checks, report.first_failure)
    assert seen == {key: (tuple(zip(CHECK_NAMES, (b == "1" for b in bits))), first)
                    for key, (bits, first) in GLUE_CASE_VERDICTS.items()}


def test_fixed_sublattice_of_glue_actions_matches_unreduced_stack():
    for factors, y_dim in _glue_cases():
        glued = build_standard(factors, y_dim)
        n = 2 * glued.dim
        stacked = IntMatrix.from_rows(
            [row for r in glued.actions for row in (r - IntMatrix.identity(n)).entries], cols=n)
        assert fixed_sublattice(n, glued.actions) == kernel_basis(stacked)
        assert verify_glued(glued).fixed_basis == kernel_basis(stacked)


def test_unimodular_by_det_agrees_with_pfaffian():
    # build_standard and form-unimodular decide |Pf| = 1 as det = 1; both
    # sides of the equivalence are exercised, the glued form and its double
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        doubled = dict(_corrupted(glued))["form-double"].form
        for form, unimodular in ((glued.form, True), (doubled, False)):
            assert (form.det() == 1) == (abs(pfaffian(form)) == 1) == unimodular


# -- decomposition -----------------------------------------------------------------


def test_decompose_roundtrips_types():
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        dec = decompose_glued(glued)
        assert dec.x_type == polarization_type(box_product(*map(xi_g, factors)))
        divisors = elementary_divisors([g + 1 for g in factors])
        assert dec.y_type == (1,) * (y_dim - len(divisors)) + divisors
        assert dec.y_basis.cols == 2 * y_dim
        assert dec.x_basis.cols == 2 * sum(factors)


def test_decompose_quotient_is_graph_sized():
    for factors, y_dim in GRID:
        glued = build_standard(factors, y_dim)
        dec = decompose_glued(glued)
        kx = kernel_group(box_product(*map(xi_g, factors))).order
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


# sha256 of glued_to_json for the benchmark glues, recorded when the
# overlattice was still a grid of Fractions; the benchmark digests do not
# cover the JSON text
GLUE_JSON_SHA256 = {
    ((3, 3), 2): "4eba3ab755fde597ed5a8a81aef220b7ab7ba9b7f1e60c021eeb0466c17a1af9",
    ((2, 2, 2), 3): "ce0da8887ca2649fb270399aa68afa7bd686c9174ac960ee8a2dc0128b316b72",
    ((1, 1, 1, 1), 4): "a6c3727b78dc8a5b16a6989b9e6e91fbbac502b4b1e8c63fffd13c9168796464",
    ((2, 3), 1): "498735060639f5235cf674602444e7106f388d6df7871aecca6bff753d842dc5",
}


def test_glued_json_text_is_pinned():
    assert set(GLUE_JSON_SHA256) == set(_glue_cases())
    for (factors, y_dim), want in GLUE_JSON_SHA256.items():
        text = glued_to_json(build_standard(factors, y_dim))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (factors, y_dim)


# sha256 of glued_to_json for glues beyond the benchmark's, recorded while
# symplectic_basis still projected its whole element pool: longer and mixed
# divisor chains, a Y larger than its divisors, and one factor alone
MORE_GLUE_JSON_SHA256 = {
    ((4, 4), 5): "42cef34cc36b69f23170cdf87472097a3013a168c9ae6bab3f678f20131ecfe1",
    ((1,) * 6, 6): "d90e5e4ba043f06418ba20dce1b226ec32536d481ff18ac63fe30f765cd8b2e2",
    ((2, 5), 3): "8a9bfde150fbf521a1a6832c2fa210eecd4ae9e8ec39a7e97a443e914e36e850",
    ((3, 7), 2): "448829d54da379c118f2eae023e5918388a804fd9040faa2d8593122120fa54f",
    ((5,), 1): "8d0a9d57560b18250d218f2a92b10683e29af5a3463453eeab856f9d29152c6a",
    ((1, 2, 3), 3): "013fe291e479b0bb3bdf3d90b0ea31dcfde3a15d79dd1695a03597f3752437f5",
    ((2, 2, 2, 2), 4): "4c735a6526bf42c4f0fe8864b6417e7bc179af0c92fc86646172f5431e29794c",
}


def test_more_glued_json_texts_are_pinned():
    for (factors, y_dim), want in MORE_GLUE_JSON_SHA256.items():
        text = glued_to_json(build_standard(factors, y_dim))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (factors, y_dim)


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


def _with_form_entry(data, value):
    form = [list(row) for row in data["form"]]
    form[0][0] = value
    return {**data, "form": form}


@pytest.mark.parametrize("tamper", [
    lambda d: {**d, "y_dim": 1.7},
    lambda d: {**d, "y_dim": True},
    lambda d: {**d, "factors": ["1"]},
    lambda d: _with_form_entry(d, 0.9),
    lambda d: {**d, "factors": []},
], ids=["float-y-dim", "bool-y-dim", "string-factor", "float-form-entry", "no-factors"])
def test_glued_json_rejects_malformed_fields(tamper):
    # the first four used to be truncated by int() and load as a valid glue;
    # no factors raised IndexError
    data = json.loads(glued_to_json(build_standard([1], 1)))
    with pytest.raises(ValueError):
        glued_from_json(json.dumps(tamper(data)))


def _two_glue_json(tamper):
    data = json.loads(glued_to_json(build_standard((2,), 1)))
    return json.dumps(tamper(data))


def _identity_grid(n):
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("tamper, error, message", [
    (lambda d: {**d, "y_dim": 2}, ValueError,
     r"^overlattice is 6x6, but factors \(2,\) and y_dim 2 need 8x8$"),
    (lambda d: {**d, "factors": [1]}, ValueError,
     r"^overlattice is 6x6, but factors \(1,\) and y_dim 1 need 4x4$"),
    (lambda d: {**d, "factors": [2, 1]}, ValueError,
     r"^overlattice is 6x6, but factors \(2, 1\) and y_dim 1 need 8x8$"),
    (lambda d: {**d, "actions": [_identity_grid(3), *d["actions"][1:]]}, ValueError,
     r"^actions\[0\] is 3x3, but"),
    (lambda d: {**d, "overlattice_num": _identity_grid(3)}, ValueError,
     r"^overlattice is 3x3, but"),
    (lambda d: {**d, "form": []}, ValueError, r"^form is 0x0, but"),
    (lambda d: {**d, "graph_num": [row[:-1] for row in d["graph_num"]]}, ValueError,
     r"^graph\[0\] has length 5, but factors \(2,\) and y_dim 1 need 6$"),
    (lambda d: {**d, "factors": [0]}, ValueError, r"^factors must be"),
    (lambda d: {**d, "factors": 2}, ValueError, r"^factors must be"),
    (lambda d: {**d, "y_dim": 0}, ValueError, r"^y_dim must be"),
    (lambda d: {**d, "factors": [1, 1]}, TypeMismatch, r"^y_dim 1 cannot carry 2"),
    (lambda d: {**d, "factors": [1] * 20000}, ValueError,
     r"^overlattice is 6x6, but factors \(1, 1, 1, "),
], ids=["y-dim-2", "factors-1", "factors-2-1", "action-3x3", "overlattice-3x3",
        "form-empty", "graph-short", "factor-zero", "factors-int", "y-dim-zero",
        "y-dim-too-small", "factors-long"])
def test_glued_json_rejects_misshapen_glue(tamper, error, message, monkeypatch):
    # each used to crash inside the gate ("shape mismatch in product") or
    # while building the rational graph; now GluedPPAV names the field.  The
    # shapes are checked before the divisors: 20,000 factors would otherwise
    # cost 2 x 10^8 gcd steps before the 6x6 matrices reject the record
    real = standard_construction.elementary_divisors

    def small_only(ms):
        ms = list(ms)
        assert len(ms) <= 2, "divisors computed before the shape checks"
        return real(ms)

    monkeypatch.setattr(standard_construction, "elementary_divisors", small_only)
    with pytest.raises(error, match=message):
        glued_from_json(_two_glue_json(tamper))


def test_glued_ppav_rejects_misshapen_fields():
    glued = build_standard((2,), 1)
    with pytest.raises(ValueError, match=r"^graph\[0\] has length 5"):
        _rebuilt(glued, graph=(glued.graph[0][:-1], *glued.graph[1:]))
    with pytest.raises(ValueError, match="^factors must be"):
        _rebuilt(glued, factors=[2])
    with pytest.raises(ValueError, match="^y_dim must be"):
        _rebuilt(glued, y_dim=True)


def _retyped(m, kind):
    """m through the direct constructor, which checks no entry type."""
    return IntMatrix(m.rows, m.cols, tuple(tuple(map(kind, row)) for row in m.entries))


def _bool_if_equal(x):
    """True for 1 and False for 0, which compare equal to them; x otherwise."""
    return x if x not in (0, 1) else bool(x)


@pytest.mark.parametrize("field, tamper", [
    ("form", lambda g: {"form": _retyped(g.form, float)}),
    ("form", lambda g: {"form": _retyped(g.form, Fraction)}),
    ("form", lambda g: {"form": _retyped(g.form, _bool_if_equal)}),
    ("actions[0]", lambda g: {"actions": (_retyped(g.actions[0], float),)}),
    ("actions[0]", lambda g: {"actions": (_retyped(g.actions[0], _bool_if_equal),)}),
    ("graph", lambda g: {"graph": tuple(tuple(map(float, row)) for row in g.graph)}),
    ("graph", lambda g: {"graph": tuple(tuple(map(_bool_if_equal, row)) for row in g.graph)}),
], ids=["form-float", "form-fraction", "form-bool", "action-float", "action-bool",
        "graph-float", "graph-bool"])
def test_glued_ppav_rejects_non_integer_entries(field, tamper):
    # each record equals the glue entry by entry, so it used to pass verify_glued
    glued = build_standard((1,), 1)
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} entries must be "):
        _rebuilt(glued, **tamper(glued))


def test_glued_json_reads_plain_ints_and_rejects_non_list_grids():
    # the writer emits decimal strings; plain JSON integers load as well
    glued = build_standard((2,), 1)
    data = json.loads(glued_to_json(glued))
    plain = {key: [[int(x) for x in row] for row in data[key]]
             for key in ("overlattice_num", "form", "graph_num")}
    plain["actions"] = [[[int(x) for x in row] for row in m] for m in data["actions"]]
    plain.update((key, int(data[key])) for key in ("overlattice_den", "graph_den"))
    assert glued_from_json(json.dumps({**data, **plain})) == glued
    with pytest.raises(ValueError, match="a matrix must be a list of rows"):
        glued_from_json(json.dumps({**data, "form": "0"}))


def _glue_json(**fields):
    return json.dumps({**json.loads(glued_to_json(build_standard([1], 1))), **fields})


LOADERS = {"polarization": polarization_from_json, "group": group_from_json,
           "glue": glued_from_json}


@pytest.mark.parametrize("loader, text, error", [
    ("polarization", "[]", ValueError),
    ("polarization", "null", ValueError),
    ("polarization", '{"g": 1}', ValueError),
    ("polarization", '{"order": [1], "g": 1, "form": [[0, 1], [-1, 0]]}', OrderMismatch),
    ("group", "[]", ValueError),
    ("group", "null", ValueError),
    ("group", '{"g": 1}', ValueError),
    ("group", '{"order_kind": "Z", "g": 1, "elements": 5}', ValueError),
    ("group", '{"order_kind": [1], "g": 1, "elements": [[[1, 0]]]}', OrderMismatch),
    ("glue", "[]", ValueError),
    ("glue", "null", ValueError),
    ("glue", '{"factors": [1]}', ValueError),
    ("glue", _glue_json(actions=5), ValueError),
], ids=["pol-list", "pol-null", "pol-missing-fields", "pol-list-kind",
        "group-list", "group-null", "group-missing-fields", "group-int-elements",
        "group-list-kind", "glue-list", "glue-null", "glue-missing-fields", "glue-int-actions"])
def test_json_loaders_raise_value_error(loader, text, error):
    # each used to raise TypeError or KeyError
    with pytest.raises(error):
        LOADERS[loader](text)


def test_glued_json_uses_decimal_strings():
    data = json.loads(glued_to_json(build_standard([1], 1)))
    assert set(data) >= {"factors", "y_dim", "overlattice_num",
                         "overlattice_den", "form", "actions"}
    assert all(isinstance(x, str) for row in data["form"] for x in row)
    assert all(isinstance(x, str) for row in data["overlattice_num"] for x in row)
    assert isinstance(data["overlattice_den"], str)
