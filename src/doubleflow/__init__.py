"""Numerics for flows on the double group SL(2,C) = SU(2)·SB(2,C).

Quadratic Poisson bracket tables, Iwasawa factorizations, Legendre maps, and
closed-form quadrature flows, each cross-checked against an independent
fixed-step RK4 oracle.
"""

from .dynamics import (
    CommutativityError,
    FlowState,
    InteractionPictureData,
    SYSTEMS,
    System,
    SystemSpec,
    action_angle_flow,
    casimir_flow,
    commuting_quadrature_flow,
    free_hamiltonian,
    interaction_picture_flow,
    legendre_invert,
    legendre_map,
    momenta_su2_flow,
    noncasimir_flow,
    perturbed_flow,
    perturbed_velocity,
    rotator_flow,
    run_system,
)
from .groups import (
    AlgebraElement,
    MembershipError,
    SB2Element,
    SL2Element,
    SU2Element,
    exp_group,
    iwasawa_gu,
    iwasawa_ug,
    random_element,
)
from .poisson import (
    BracketTable,
    Poly,
    get_table,
    gradient_covector,
    named_function,
    point_of_element,
    poisson_point,
    random_point,
)
from .quadrature import (
    DriftReport,
    NonFiniteStateError,
    Trajectory,
    drift_report,
    rk4_integrate,
    simpson_integral,
    simpson_rule,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BracketTable",
    "CommutativityError",
    "DriftReport",
    "FlowState",
    "InteractionPictureData",
    "MembershipError",
    "NonFiniteStateError",
    "Poly",
    "SB2Element",
    "SL2Element",
    "SU2Element",
    "SYSTEMS",
    "System",
    "SystemSpec",
    "Trajectory",
    "action_angle_flow",
    "casimir_flow",
    "commuting_quadrature_flow",
    "drift_report",
    "exp_group",
    "free_hamiltonian",
    "get_table",
    "gradient_covector",
    "interaction_picture_flow",
    "iwasawa_gu",
    "iwasawa_ug",
    "legendre_invert",
    "legendre_map",
    "momenta_su2_flow",
    "named_function",
    "noncasimir_flow",
    "perturbed_flow",
    "perturbed_velocity",
    "point_of_element",
    "poisson_point",
    "random_element",
    "random_point",
    "rk4_integrate",
    "rotator_flow",
    "run_suite",
    "run_system",
    "simpson_integral",
    "simpson_rule",
    "__version__",
]
