"""Exact-arithmetic lab for polarized lattice constructions.

Everything runs over Z and Q: integer matrices with Smith and Hermite
reduction, quadratic orders acting on doubled lattices, alternating forms
with their kernel groups and pairings, finite symmetry groups, a gluing
construction producing unimodular overlattices, and small feasibility
scans.  No floats anywhere; every claim is checked by exact equality.
"""

from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    hnf_columns,
    is_positive_definite,
    kernel_basis,
    snf,
    snf_diagonal,
)
from .tori import (
    EISENSTEIN,
    GAUSSIAN,
    OrderElem,
    OrderMatrix,
    QuadOrder,
    RATIONAL,
    Torus,
)
from .polarizations import (
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
from .group_actions import (
    MatrixGroup,
    action_on_kernel,
    average_pullback,
    closure,
    example_a,
    example_b,
    example_c,
    fixed_sublattice,
    invariant_form,
    ns_fixed,
    pseudoreflection_generated,
)
from .standard_construction import (
    build_standard,
    decompose_glued,
    elementary_divisors,
    symplectic_basis,
    verify_glued,
)
from .jacobian_feasibility import (
    pseudoreflection_genus_bound,
    rh_residual,
    survey,
)
from .checks import CHECKS, RunOptions, run_checks

__all__ = [
    "IntMatrix", "RatMatrix", "hnf_columns",
    "is_positive_definite", "kernel_basis", "snf", "snf_diagonal",
    "EISENSTEIN", "GAUSSIAN", "OrderElem", "OrderMatrix", "QuadOrder",
    "RATIONAL", "Torus",
    "PolarizedTorus", "box_product", "is_principal",
    "kernel_group", "polarization_type", "restrict", "scale",
    "scan_subtorus_types", "self_intersection", "theta_g", "xi_g",
    "MatrixGroup", "action_on_kernel", "average_pullback",
    "closure", "example_a", "example_b", "example_c", "fixed_sublattice",
    "invariant_form", "ns_fixed", "pseudoreflection_generated",
    "build_standard", "decompose_glued", "elementary_divisors",
    "symplectic_basis", "verify_glued",
    "pseudoreflection_genus_bound", "rh_residual", "survey",
    "CHECKS", "RunOptions", "run_checks",
]
