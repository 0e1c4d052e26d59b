"""Pareto efficiency analysis for linear criteria on the probability simplex.

Given a matrix whose rows score the columns under several criteria, this
package decides whether a mixed strategy (a point of the probability
simplex) is Pareto efficient, produces strictly positive weight vectors
as certificates, enumerates the efficient vertices and open faces, and
cross-checks verdicts with an independent dominance program.
"""

from .core import (
    DEFAULT_TOLERANCES,
    CriteriaMatrix,
    Deterministic,
    DimensionMismatchError,
    InputError,
    InvalidPointError,
    PartiallyRandomized,
    PointClass,
    Randomized,
    SimplexPoint,
    SupportPattern,
    Tolerances,
    Verdict,
    check_points,
    clamped_indices,
    classify,
    point_groups,
    support_class,
    vertex,
)
from .efficiency import (
    EfficiencyAnalyzer,
    EfficiencyReport,
    TestKind,
    TestProgram,
    TestResult,
    build_closure,
    build_t0,
    build_t1,
    build_t2,
    verify_certificate,
)
from .enumeration import (
    MAX_LISTED_SUPPORTS,
    EfficientStructure,
    EnumerationCapError,
    bicriterion_full_check,
    bicriterion_ratios,
    check_full,
    enumerate_faces,
    enumerate_vertices,
)
from .lp import (
    LpError,
    LpSolution,
    LpStatus,
    NumericalBreakdownError,
    Relation,
    StandardLp,
    feasibility_violation,
    solve,
)
from .oracle import build_dominance_lp, dominance_lp_verdict
from .scalarize import (
    ObjectiveVector,
    WeightVector,
    argmax_set,
    solution_set,
    weighted_objective,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES",
    "MAX_LISTED_SUPPORTS",
    "CriteriaMatrix",
    "Deterministic",
    "DimensionMismatchError",
    "EfficiencyAnalyzer",
    "EfficiencyReport",
    "EfficientStructure",
    "EnumerationCapError",
    "InputError",
    "InvalidPointError",
    "LpError",
    "LpSolution",
    "LpStatus",
    "NumericalBreakdownError",
    "ObjectiveVector",
    "PartiallyRandomized",
    "PointClass",
    "Randomized",
    "Relation",
    "SimplexPoint",
    "StandardLp",
    "SupportPattern",
    "TestKind",
    "TestProgram",
    "TestResult",
    "Tolerances",
    "Verdict",
    "WeightVector",
    "argmax_set",
    "bicriterion_full_check",
    "bicriterion_ratios",
    "build_dominance_lp",
    "build_closure",
    "build_t0",
    "build_t1",
    "build_t2",
    "check_full",
    "check_points",
    "clamped_indices",
    "classify",
    "dominance_lp_verdict",
    "enumerate_faces",
    "enumerate_vertices",
    "feasibility_violation",
    "point_groups",
    "solution_set",
    "solve",
    "support_class",
    "verify_certificate",
    "vertex",
    "weighted_objective",
]
