"""Named batch checks over the whole library, with machine-readable results.

Each check is a pure function from run options to a pass/fail flag plus a
witness dictionary.  The registry is static code: adding a check means
adding a function here, so the claims being verified stay reviewable.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .exact_linalg import IntMatrix
from .group_actions import (
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
from .jacobian_feasibility import (
    pseudoreflection_genus_bound,
    rh_residual,
    survey,
    survey_to_dict,
)
from .polarizations import (
    PolarizedTorus,
    PrincipalRestrictionFound,
    box_product,
    is_principal,
    kernel_group,
    polarization_type,
    restrict,
    scale,
    scan_subtorus_types,
    self_intersection,
    split_form,
    theta_g,
    xi_g,
)
from .standard_construction import (
    build_standard,
    decompose_glued,
    elementary_divisors,
    verify_glued,
)
from .tori import GAUSSIAN, OrderElem, OrderMatrix, RATIONAL, Torus


class UnknownCheck(ValueError):
    """Requested check id is not in the registry."""


class RunOptions(NamedTuple):
    """Knobs shared by all checks; every field has a reproducible default."""

    gmax: int = 6
    factors: tuple[int, ...] | None = None
    ydim: int | None = None
    seed: int = 0


class CheckResult(NamedTuple):
    check_id: str
    status: str  # "pass" | "fail" | "error"
    witnesses: dict
    elapsed_ms: int


def _check_xi_kernel_type(opts: RunOptions):
    """xi_g has type (1, ..., 1, g + 1) and a kernel of order (g + 1)^2 on the diagonal."""
    types = {}
    ok = True
    for g in range(1, opts.gmax + 1):
        p = xi_g(g)
        t = polarization_type(p)
        k = kernel_group(p)
        types[g] = list(t)
        ok = ok and t == (1,) * (g - 1) + (g + 1,)
        ok = ok and k.order == (g + 1) ** 2
        # kernel generators live on the diagonal torsion
        step = Fraction(1, g + 1)
        diag = tuple(step for _ in range(g))
        ok = ok and k.contains(diag + diag)
    return ok, {"types": types}


def _check_theta_principal(opts: RunOptions):
    """theta_g is principal, with a trivial kernel group."""
    ok = all(is_principal(p) and kernel_group(p).order == 1
             for p in map(theta_g, range(1, opts.gmax + 1)))
    return ok, {"gmax": opts.gmax}


def _check_example_a_orders(opts: RunOptions):
    """Example A's group for (g, m) has order m^g * g!."""
    orders = {}
    ok = True
    for g in (1, 2, 3):
        for m in (2, 3, 4):
            got = example_a(g, m)[0].order
            orders[f"{g},{m}"] = got
            ok = ok and got == m ** g * math.factorial(g)
    return ok, {"orders": orders}


def _check_example_b_orders(opts: RunOptions):
    """Example B's group for g is S_{g+1}, of order (g + 1)!."""
    orders = {g: example_b(g)[0].order for g in (1, 2, 3, 4)}
    ok = all(orders[g] == math.factorial(g + 1) for g in orders)
    return ok, {"orders": orders}


def _check_example_c_order(opts: RunOptions):
    """Example C's group has order 16."""
    got = example_c()[0].order
    return got == 16, {"order": got}


def _neg_group():
    return closure([OrderMatrix.scalar(RATIONAL, 2, OrderElem(-1, 0))])


def _check_reflection_generation(opts: RunOptions):
    """The example groups are generated by pseudoreflections; <-1> on E^2 is not."""
    results = {}
    ok = True
    for label, grp in (("a-2-2", example_a(2, 2)[0]),
                       ("a-3-3", example_a(3, 3)[0]),
                       ("b-2", example_b(2)[0]),
                       ("b-3", example_b(3)[0]),
                       ("b-4", example_b(4)[0]),
                       ("c", example_c()[0])):
        generated, count = pseudoreflection_generated(grp)
        results[label] = {"generated": generated, "count": count}
        ok = ok and generated
    generated, _ = pseudoreflection_generated(_neg_group())
    results["negation"] = {"generated": generated}
    ok = ok and not generated
    return ok, results


def _check_invariance_ns(opts: RunOptions):
    """Each example group preserves its form, which spans the rank-1 invariant NS part."""
    ok = True
    ranks = {}
    for label, (grp, pol) in (("a-2-2", example_a(2, 2)),
                              ("a-3-2", example_a(3, 2)),
                              ("b-2", example_b(2)),
                              ("b-3", example_b(3)),
                              ("c", example_c())):
        ok = ok and invariant_form(grp, pol)
        rank, forms = ns_fixed(grp)
        ranks[label] = rank
        ok = ok and rank == 1 and forms[0] == pol.form
    return ok, {"ranks": ranks}


def _check_kernel_action(opts: RunOptions):
    """Which example groups fix every element of their polarization's kernel group."""
    grp_a2, pol_a2 = example_a(2, 2)
    a22 = action_on_kernel(grp_a2, kernel_group(scale(pol_a2, 2)))
    grp_a3, pol_a3 = example_a(2, 3)
    a23 = action_on_kernel(grp_a3, kernel_group(scale(pol_a3, 3)))
    b2 = action_on_kernel(example_b(2)[0], kernel_group(xi_g(2)))
    grp_c, pol_c = example_c()
    c = action_on_kernel(grp_c, kernel_group(pol_c))
    witnesses = {"a_2_2": a22, "a_2_3": a23, "b_2": b2,
                 "c": c, "expected_c": False}
    ok = (a22 is False) and (a23 is False) and (b2 is True) and (c is False)
    return ok, witnesses


def _check_average_pullback_c(opts: RunOptions):
    """Averaging theta_2 over example C's group gives its form, of type (1, 2)."""
    grp, pol = example_c()
    prim, mult = average_pullback(grp, theta_g(2, GAUSSIAN))
    k = kernel_group(prim)
    h = Fraction(1, 2)
    ok = (mult == 16 and prim.form == pol.form and k.order == 4
          and k.contains((h, 0, h, 0)) and k.contains((0, h, 0, h))
          and polarization_type(prim) == (1, 2))
    return ok, {"multiplier": mult, "kernel_order": k.order,
                "type": list(polarization_type(prim))}


def _random_pd_form(g: int, rng: random.Random) -> PolarizedTorus:
    c = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(g)]
                             for _ in range(g)], cols=g)
    b = c.transpose() * c + IntMatrix.identity(g)
    return PolarizedTorus(Torus(RATIONAL, g), split_form(b))


def _check_box_kernel_product(opts: RunOptions):
    """Box products multiply kernel orders and merge the factors' types, on random forms."""
    rng = random.Random(opts.seed)
    checked = 0
    for _ in range(50):
        p = _random_pd_form(rng.randint(1, 3), rng)
        q = _random_pd_form(rng.randint(1, 3), rng)
        box = box_product(p, q)
        if kernel_group(box).order != kernel_group(p).order * kernel_group(q).order:
            return False, {"failed_after": checked}
        merged = elementary_divisors(
            list(polarization_type(p)) + list(polarization_type(q)))
        box_chain = tuple(d for d in polarization_type(box) if d > 1)
        if box_chain != merged:
            return False, {"failed_after": checked}
        checked += 1
    return True, {"pairs": checked, "seed": opts.seed}


def _check_standard_build(opts: RunOptions):
    """The standard glues build, verify and decompose into their X and Y sides."""
    if opts.factors is not None:
        divisors = elementary_divisors([g + 1 for g in opts.factors])
        grid = ((tuple(opts.factors),
                 opts.ydim if opts.ydim is not None else len(divisors)),)
    else:
        grid = (((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 3), 1))
    builds = {}
    ok = True
    for factors, y_dim in grid:
        glued = build_standard(factors, y_dim)
        report = verify_glued(glued)
        dec = decompose_glued(glued)
        label = ",".join(map(str, factors))
        builds[label] = {
            "dim": glued.dim,
            "index": report.overlattice_index,
            "x_type": list(dec.x_type),
            "y_type": list(dec.y_type),
            "first_failure": report.first_failure,
        }
        ok = ok and report.all_passed
    return ok, {"builds": builds}


def _check_subtorus_not_principal(opts: RunOptions):
    """No scanned stable subtorus of (E^n, xi_n) is principally polarized."""
    counts = {}
    try:
        for n in (2, 3):
            counts[n] = len(scan_subtorus_types(n, 3))
    except PrincipalRestrictionFound as found:
        return False, {"principal_witness": str(found)}
    diag = IntMatrix.from_columns([[1, 1, 0, 0], [0, 0, 1, 1]], rows=4)
    t = polarization_type(restrict(xi_g(2), diag))
    return t == (6,), {"scanned": counts, "diagonal_type": list(t)}


def _check_jacobian_cases(opts: RunOptions):
    """The Riemann-Hurwitz and genus-bound eliminations of the Jacobian survey."""
    bound = pseudoreflection_genus_bound()
    rows = {r.group: r for r in survey()}
    ok = (rh_residual(2, 1, 2) == 2
          and rh_residual(3, 2, 2) == 0
          and rh_residual(3, 2, 3) is None
          and bound.g_max == 3
          and bound.cases == ((3, 2), (3, 1), (3, 0), (2, 1), (2, 0))
          and rows["(Z/2)^2"].witnesses == (16, 4)
          and rows["S_3"].witnesses == (-2,))
    return ok, survey_to_dict()


def _check_self_intersection(opts: RunOptions):
    """The self-intersections of theta_g and xi_g equal g! times the product of the type."""
    # two routes meet the closed forms g! and g!(g + 1): self_intersection
    # reads the type off the Smith form, and g! * sqrt(det) holds because
    # det = Pf^2 for an alternating form (a Bareiss determinant)
    degrees = {}
    ok = True
    for g in range(1, 6):
        fact = math.factorial(g)
        degrees[g] = {}
        for name, p, want in (("theta", theta_g(g), fact), ("xi", xi_g(g), fact * (g + 1))):
            degree = degrees[g][name] = self_intersection(p)
            ok = ok and degree == want == fact * math.isqrt(p.form.det())
    return ok, {"degrees": degrees}


CHECKS = {
    "xi-kernel-type": _check_xi_kernel_type,
    "theta-principal": _check_theta_principal,
    "example-a-orders": _check_example_a_orders,
    "example-b-orders": _check_example_b_orders,
    "example-c-order": _check_example_c_order,
    "reflection-generation": _check_reflection_generation,
    "invariance-ns": _check_invariance_ns,
    "kernel-action": _check_kernel_action,
    "average-pullback-c": _check_average_pullback_c,
    "box-kernel-product": _check_box_kernel_product,
    "standard-build": _check_standard_build,
    "subtorus-not-principal": _check_subtorus_not_principal,
    "jacobian-cases": _check_jacobian_cases,
    "self-intersection": _check_self_intersection,
}


def select_checks(check_ids) -> list[str]:
    """The named check ids (all when none are named), in registry order."""
    if not check_ids:
        return list(CHECKS)
    unknown = [c for c in check_ids if c not in CHECKS]
    if unknown:
        raise UnknownCheck(f"unknown check ids: {', '.join(unknown)}")
    return [c for c in CHECKS if c in set(check_ids)]


def run_checks(check_ids, options: RunOptions) -> list[CheckResult]:
    """Run the selected checks (all when none are named), in registry order."""
    results = []
    for check_id in select_checks(check_ids):
        start = time.perf_counter()
        try:
            ok, witnesses = CHECKS[check_id](options)
            status = "pass" if ok else "fail"
        except Exception as exc:
            status, witnesses = "error", {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = int((time.perf_counter() - start) * 1000)
        results.append(CheckResult(check_id, status, witnesses, elapsed))
    return results
