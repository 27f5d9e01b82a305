"""Arithmetic feasibility of Galois covers behind quotient constructions.

Everything here is Riemann-Hurwitz bookkeeping: residual ramification
degrees, the genus ceiling forced by a subgroup of order at least two
fixing a divisor, and the elimination of the borderline genus-3 case with
genus-1 quotient.  Curves never appear; only their numeric invariants do.
"""

from __future__ import annotations

from typing import NamedTuple


class _Infeasible:
    """Singleton returned when a residual would have to be negative."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __bool__(self) -> bool:
        return False


INFEASIBLE = _Infeasible()

_GENUS_SCAN_MAX = 10
_ORDER_SCAN_MAX = 20


def rh_residual(g: int, g_prime: int, group_order: int):
    """Ramification total R with 2g - 2 = |G|(2g' - 2) + R; INFEASIBLE if R < 0."""
    for name, value in (("g", g), ("g_prime", g_prime), ("group_order", group_order)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if g < 0 or g_prime < 0:
        raise ValueError("genera must be nonnegative")
    if group_order < 2:
        raise ValueError("group order must be at least 2")
    r = _ramification_total(g, g_prime, group_order)
    return r if r >= 0 else INFEASIBLE


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
                if any(rh_residual(g, g - 1, n) is not INFEASIBLE
                       for n in range(2, _ORDER_SCAN_MAX + 1))]
    g_max = max(feasible)
    cases = tuple((g, gp) for g in sorted(feasible, reverse=True)
                  for gp in range(g - 1, -1, -1))
    return GenusBound(g_max, cases)


# -- the borderline genus-3 case ----------------------------------------------------


class Elimination(NamedTuple):
    """One excluded group for a (g, g') pair, with its numeric witnesses."""

    group: str
    g: int
    g_prime: int
    group_order: int
    witnesses: tuple[int, ...]
    reason: str


class CaseRow(NamedTuple):
    """CLI-facing summary row for one (genus, quotient genus, group) case."""

    g: int
    g_prime: int
    group_order: int
    residual: int
    status: str
    reason: str


class Case31Report(NamedTuple):
    """Eliminations for genus 3 over genus 1, with assumptions and survivors."""

    eliminations: tuple[Elimination, ...]
    assumptions: tuple[str, ...]
    survivors: tuple[CaseRow, ...]


def case31_contradictions() -> Case31Report:
    """Exclude both group candidates for a genus-3 curve over a genus-1 quotient.

    The rank-4 elementary group would force 16 intersection points inside a
    4-element 2-torsion group; the symmetric group on three letters forces
    an intermediate degree-3 cover of a genus-2 curve, whose residual is
    negative.  A genus-1 intermediate quotient is not computed; excluding it
    is a minimality assumption recorded as text.
    """
    meeting = 4 ** 2
    torsion_bound = 2 ** 2
    klein = Elimination(
        group="(Z/2)^2",
        g=3, g_prime=1, group_order=4,
        witnesses=(meeting, torsion_bound),
        reason=f"{meeting} pullback intersection points exceed the "
               f"{torsion_bound}-element 2-torsion bound")
    raw = _ramification_total(3, 2, 3)
    if raw >= 0:
        raise ArithmeticError("the degree-3 cover of a genus-2 curve must be infeasible")
    sym3 = Elimination(
        group="S_3",
        g=3, g_prime=1, group_order=6,
        witnesses=(raw,),
        reason="the intermediate degree-3 cover of a genus-2 curve has "
               f"residual {raw} < 0")
    survivors = (
        CaseRow(2, 1, 2, rh_residual(2, 1, 2), "survives",
                "involution quotient to an elliptic curve, two branch points"),
        CaseRow(3, 2, 2, rh_residual(3, 2, 2), "survives",
                "unramified double cover"),
    )
    return Case31Report(
        eliminations=(klein, sym3),
        assumptions=(
            "a genus-1 intermediate quotient is excluded by minimality of "
            "the cover, not recomputed here",),
        survivors=survivors,
    )


def survey() -> tuple[CaseRow, ...]:
    """One row per examined (g, g', group) case across the candidate list."""
    report = case31_contradictions()
    rows = [
        CaseRow(2, 0, 2, rh_residual(2, 0, 2), "eliminated",
                "a genus-0 quotient leaves no fixed part to match the kernel"),
        report.survivors[0],
        CaseRow(3, 0, 2, rh_residual(3, 0, 2), "eliminated",
                "a genus-0 quotient leaves no fixed part to match the kernel"),
    ]
    for e in report.eliminations:
        rows.append(CaseRow(e.g, e.g_prime, e.group_order,
                            rh_residual(e.g, e.g_prime, e.group_order),
                            "eliminated", e.reason))
    rows.append(report.survivors[1])
    rows.sort(key=lambda r: (r.g, r.g_prime, r.group_order))
    return tuple(rows)


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
