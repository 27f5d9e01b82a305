"""Arithmetic feasibility of Galois covers behind quotient constructions.

Everything here is Riemann-Hurwitz bookkeeping: residual ramification
degrees, the genus ceiling forced by a subgroup of order at least two
fixing a divisor, and the elimination of the borderline genus-3 case with
genus-1 quotient.  Curves never appear; only their numeric invariants do.
"""

from __future__ import annotations

from typing import NamedTuple

_GENUS_SCAN_MAX = 10
_ORDER_SCAN_MAX = 20


def rh_residual(g: int, g_prime: int, group_order: int) -> int | None:
    """Ramification total R with 2g - 2 = |G|(2g' - 2) + R; None if R < 0."""
    for name, value in (("g", g), ("g_prime", g_prime), ("group_order", group_order)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if g < 0 or g_prime < 0:
        raise ValueError("genera must be nonnegative")
    if group_order < 2:
        raise ValueError("group order must be at least 2")
    r = _ramification_total(g, g_prime, group_order)
    return r if r >= 0 else None


def _ramification_total(g: int, g_prime: int, group_order: int) -> int:
    """2g - 2 - |G|(2g' - 2): the Riemann-Hurwitz ramification total, of any sign."""
    return 2 * g - 2 - group_order * (2 * g_prime - 2)


class GenusBound(NamedTuple):
    """Largest feasible genus and all (g, g') candidates below it."""

    g_max: int
    cases: tuple[tuple[int, int], ...]


def pseudoreflection_genus_bound() -> GenusBound:
    """Genus ceiling when a subgroup of order >= 2 fixes a divisor.

    The fixed divisor forces a quotient of genus g - 1, so feasibility of
    (g, g - 1) over some group order at least 2 bounds g; candidate pairs
    then run over all smaller quotient genera.
    """
    feasible = [g for g in range(2, _GENUS_SCAN_MAX + 1)
                if any(rh_residual(g, g - 1, n) is not None
                       for n in range(2, _ORDER_SCAN_MAX + 1))]
    g_max = max(feasible)
    cases = tuple((g, gp) for g in sorted(feasible, reverse=True)
                  for gp in range(g - 1, -1, -1))
    return GenusBound(g_max, cases)


# -- the survey of cases -------------------------------------------------------------


class CaseRow(NamedTuple):
    """One (genus, quotient genus, group) case, its verdict and numeric witnesses."""

    g: int
    g_prime: int
    group: str
    group_order: int
    residual: int
    status: str
    reason: str
    witnesses: tuple[int, ...]


def survey() -> tuple[CaseRow, ...]:
    """One row per examined (g, g', group) case, ordered by (g, g', |G|).

    Genus 3 over genus 1 excludes both group candidates.  The rank-4
    elementary group (Z/2)^2 would force 16 intersection points inside a
    4-element 2-torsion group; the symmetric group S_3 forces an
    intermediate degree-3 cover of a genus-2 curve, whose residual is
    negative.  A genus-1 intermediate quotient is not computed: it is
    excluded by minimality of the cover, an assumption, not a result.
    """
    meeting, torsion_bound = 4 ** 2, 2 ** 2
    raw = _ramification_total(3, 2, 3)
    if raw >= 0:
        raise ArithmeticError("the degree-3 cover of a genus-2 curve must be infeasible")
    genus0 = "a genus-0 quotient leaves no fixed part to match the kernel"

    def row(g, g_prime, group, group_order, status, reason, witnesses=()):
        return CaseRow(g, g_prime, group, group_order, rh_residual(g, g_prime, group_order),
                       status, reason, witnesses)

    return (
        row(2, 0, "Z/2", 2, "eliminated", genus0),
        row(2, 1, "Z/2", 2, "survives",
            "involution quotient to an elliptic curve, two branch points"),
        row(3, 0, "Z/2", 2, "eliminated", genus0),
        row(3, 1, "(Z/2)^2", 4, "eliminated",
            f"{meeting} pullback intersection points exceed the "
            f"{torsion_bound}-element 2-torsion bound", (meeting, torsion_bound)),
        row(3, 1, "S_3", 6, "eliminated",
            f"the intermediate degree-3 cover of a genus-2 curve has residual {raw} < 0",
            (raw,)),
        row(3, 2, "Z/2", 2, "survives", "unramified double cover"),
    )


def survey_to_dict() -> dict:
    """JSON-shaped survey: {cases: [{g, g_prime, group_order, R, status, reason}]}."""
    return {"cases": [{
        "g": r.g,
        "g_prime": r.g_prime,
        "group_order": r.group_order,
        "R": r.residual,
        "status": r.status,
        "reason": r.reason,
    } for r in survey()]}
