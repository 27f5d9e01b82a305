"""Cover arithmetic: residuals, the genus bound, and case eliminations."""

import pytest
from hypothesis import given, strategies as st

from ppavlab.jacobian_feasibility import (
    _ramification_total,
    pseudoreflection_genus_bound,
    rh_residual,
    survey,
    survey_to_dict,
)


# -- residuals -----------------------------------------------------------------


def test_residual_examples():
    assert rh_residual(2, 1, 2) == 2
    assert rh_residual(3, 2, 2) == 0
    assert rh_residual(3, 2, 3) is None
    assert rh_residual(4, 3, 2) is None


def test_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        rh_residual(-1, 0, 2)
    with pytest.raises(ValueError):
        rh_residual(2, 1, 1)


@pytest.mark.parametrize("args, name", [
    ((2.5, 1, 2), "g"), ((True, 0, 2), "g"), ((3, 1.0, 2), "g_prime"),
    ((3, 1, 2.5), "group_order"), ((3, 1, "2"), "group_order"),
], ids=["g-float", "g-bool", "g-prime-float", "order-float", "order-str"])
def test_residual_refuses_sizes_that_are_not_ints(args, name):
    # rh_residual(2.5, 1, 2) returned 3.0, (3, 1, 2.5) 4.0 and (True, 0, 2) 4
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        rh_residual(*args)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(2, 30))
def test_residual_is_none_exactly_when_negative(g, gp, n):
    assert (rh_residual(g, gp, n) is None) == (2 * g - 2 - n * (2 * gp - 2) < 0)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(2, 30))
def test_residual_is_even_when_feasible(g, gp, n):
    r = rh_residual(g, gp, n)
    if r is not None:
        assert r % 2 == 0
        assert 2 * g - 2 == n * (2 * gp - 2) + r


# -- the genus bound -------------------------------------------------------------


def test_genus_bound_value():
    bound = pseudoreflection_genus_bound()
    assert bound.g_max == 3
    assert bound.cases == ((3, 2), (3, 1), (3, 0), (2, 1), (2, 0))


def test_genus_bound_matches_exhaustive_scan():
    feasible = set()
    for g in range(2, 11):
        for n in range(2, 21):
            if rh_residual(g, g - 1, n) is not None:
                feasible.add(g)
    assert feasible == {2, 3}


def test_genus_four_with_reflection_is_infeasible():
    assert rh_residual(4, 3, 2) is None


# -- the borderline case ------------------------------------------------------------


def test_case31_eliminations():
    rows = {r.group: r for r in survey() if (r.g, r.g_prime) == (3, 1)}
    klein = rows["(Z/2)^2"]
    assert klein.witnesses == (16, 4)
    assert klein.group_order == 4
    sym3 = rows["S_3"]
    assert sym3.witnesses == (-2,)
    assert sym3.group_order == 6
    assert all(r.status == "eliminated" for r in rows.values())


def test_case31_survivors():
    survivors = [r for r in survey() if r.status == "survives"]
    assert [(r.g, r.g_prime, r.residual) for r in survivors] == [
        (2, 1, 2), (3, 2, 0)]


def test_survey_rows_carry_their_witnesses():
    rows = survey()
    assert [(r.g, r.g_prime, r.group, r.group_order) for r in rows] == [
        (2, 0, "Z/2", 2), (2, 1, "Z/2", 2), (3, 0, "Z/2", 2),
        (3, 1, "(Z/2)^2", 4), (3, 1, "S_3", 6), (3, 2, "Z/2", 2)]
    for r in rows:
        assert r.residual == rh_residual(r.g, r.g_prime, r.group_order)
    witnesses = {(r.g, r.g_prime, r.group_order): r.witnesses for r in rows}
    assert witnesses.pop((3, 1, 4)) == (16, 4)
    assert witnesses.pop((3, 1, 6)) == (_ramification_total(3, 2, 3),)
    assert set(witnesses.values()) == {()}


def test_survey_covers_all_candidate_pairs():
    rows = survey()
    pairs = {(r.g, r.g_prime) for r in rows}
    assert pairs == set(pseudoreflection_genus_bound().cases)
    surviving = [(r.g, r.g_prime) for r in rows if r.status == "survives"]
    assert surviving == [(2, 1), (3, 2)]


def test_survey_dict_schema():
    data = survey_to_dict()
    assert set(data) == {"cases"}
    for case in data["cases"]:
        assert set(case) == {"g", "g_prime", "group_order", "R",
                             "status", "reason"}
        assert case["status"] in ("survives", "eliminated")
