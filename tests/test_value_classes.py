"""The library's records and validated values are immutable and compare by value.

Records are named tuples.  Validated values check their fields in
__init__ and share one private base: equal only within their own class,
hashed as the tuple of their fields, shown as Name(field=value, ...).
"""

import copy
from types import SimpleNamespace

import pytest

from ppavlab.checks import CheckResult, RunOptions
from ppavlab.exact_linalg import IntMatrix, RatMatrix, _Frozen
from ppavlab.group_actions import MatrixGroup, example_a
from ppavlab.jacobian_feasibility import CaseRow, survey
from ppavlab.polarizations import FiniteSymplecticGroup, PolarizedTorus, kernel_group, theta_g, xi_g
from ppavlab.standard_construction import GluedPPAV, GlueReport, build_standard, verify_glued
from ppavlab.tori import GAUSSIAN, RATIONAL, OrderMatrix, QuadOrder, Torus

# class -> (a builder of one value, a builder of a different value, cached attribute)
CASES = {
    IntMatrix: (lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
                lambda: IntMatrix.from_rows([[1, 2], [3, 5]]), None),
    RatMatrix: (lambda: RatMatrix(IntMatrix.from_rows([[2, 1], [1, 1]]), 2),
                lambda: RatMatrix(IntMatrix.from_rows([[2, 1], [1, 1]]), 3), "_inverse"),
    OrderMatrix: (lambda: OrderMatrix.from_int_rows(RATIONAL, [[1, 0], [0, 1]]),
                  lambda: OrderMatrix.from_int_rows(GAUSSIAN, [[1, 0], [0, 1]]), None),
    Torus: (lambda: Torus(RATIONAL, 2), lambda: Torus(GAUSSIAN, 2), None),
    PolarizedTorus: (lambda: theta_g(2), lambda: xi_g(2), "_smith"),
    GluedPPAV: (lambda: build_standard((1,), 1), lambda: build_standard((2,), 1), "_report"),
    QuadOrder: (lambda: QuadOrder("Z[i]", 0, -1), lambda: QuadOrder("Z", 0, 0), None),
    RunOptions: (lambda: RunOptions(), lambda: RunOptions(gmax=3), None),
    CheckResult: (lambda: CheckResult("theta-principal", "pass", {"gmax": 6}, 1),
                  lambda: CheckResult("theta-principal", "fail", {"gmax": 6}, 1), None),
    MatrixGroup: (lambda: example_a(1, 2)[0], lambda: example_a(1, 3)[0], None),
    FiniteSymplecticGroup: (lambda: kernel_group(xi_g(1)), lambda: kernel_group(xi_g(2)), None),
    CaseRow: (lambda: survey()[3], lambda: survey()[4], None),
    GlueReport: (lambda: verify_glued(build_standard((1,), 1)),
                 lambda: verify_glued(build_standard((2,), 1)), None),
}


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_is_immutable_and_compares_by_its_fields(cls):
    make, make_other, cached = CASES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is type(b) is type(other) is cls
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b and not a != b
    assert a != other and not a == other
    if cls is CheckResult:
        with pytest.raises(TypeError):  # its witnesses are a dict
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_fields(a))
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(cls._fields, _fields(a)))
    assert repr(a) == f"{cls.__name__}({shown})"
    assert copy.copy(a) == a
    if issubclass(cls, _Frozen):
        # only its own class compares equal, whatever the field values
        assert a != SimpleNamespace(**dict(zip(cls._fields, _fields(a))))
        assert a != _fields(a)
    else:
        assert issubclass(cls, tuple)
    if cached is not None:
        assert getattr(a, cached) is getattr(a, cached)
