"""tropgeo: exact max-plus plane geometry.

Stable curves and intersections over the max-plus semiring, residual
lifting conditions with certificates, generic position of points in a
curve, and a property-based checker for constructible incidence
theorems (Fano, Pappus, converse Pascal, Chasles, Cayley-Bacharach).
"""

from .trop_core import Support, TropPoly, curve, dual_subdivision, concave_canonical, mixed_volume
from .trop_linalg import trop_det, cramer_stable, pseudodet, cramer_conditions
from .residual import ResidualField, RPoly, Jet, ConditionSet, density_test
from .stable_ops import (
    stable_curve,
    stable_intersection,
    perturbation_oracle,
    intersection_step_conditions,
    local_intersection_solve,
)
from .genpos import build_gamma, find_assignment, in_general_position
from .construction import (
    Construction,
    CurveThrough,
    Intersect,
    IncidenceStructure,
    construction_to_incidence,
    subconstruction_to,
    validate_construction,
    complete_to_construction,
    is_admissible,
    realize,
    lift_conditions,
    classify_certificates,
    lift_acyclic,
)
from .theorems import (
    Statement,
    catalog,
    cayley_bacharach_statement,
    check_statement,
    thesis_feasible_curve,
    thesis_feasible_point,
)
from .dsl import print_doc

__version__ = "0.1.0"
