"""Exact rational preimages of the combinatorial Laplacian on growing balls.

A graph is given lazily through a neighbor oracle; targets and diagonal
weights are rational-valued.  Two constructions are provided: a direct
per-ball solve of the truncated operator, and a coherent family obtained by
stabilizing chains of solution-set images.  All arithmetic is exact.
"""

from .errors import (
    BadFamilyParameter,
    BadRadii,
    ChainViolation,
    DimensionMismatch,
    EmptyUniversalSet,
    ExactLapError,
    GraphSpecError,
    InsufficientDomain,
    LiftFailed,
    NotStabilized,
    OracleInconsistent,
    SingularSystem,
    SpecFormatError,
    VertexBudgetExceeded,
)
from .graphs import (
    custom_oracle,
    cycle_oracle,
    family_oracle,
    free_group_oracle,
    grid_oracle,
    ladder_oracle,
    line_oracle,
    path_oracle,
    tree_oracle,
    validate_oracle,
)
from .kernel import RationalMatrix
from .linalg import (
    AffineSubspace,
    affine_subset,
    determinant,
    solution_image,
    solve_exact,
    subspace_equal,
)
from .operators import (
    BallFunction,
    LambdaField,
    TargetFunction,
    apply_laplacian,
    restricted_operator_matrix,
    truncated_operator_matrix,
)
from .oracle import Ball, GraphOracle, enumerate_ball
from .solver import (
    Certificate,
    ChainState,
    CoherentResult,
    SolveReport,
    affine_solution_set,
    coherent_solution,
    max_principle_certificate,
    prodiscrete_distance,
    run_chain,
    solve_on_ball,
    universal_element,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "BadFamilyParameter",
    "BadRadii",
    "Ball",
    "BallFunction",
    "Certificate",
    "ChainState",
    "ChainViolation",
    "CoherentResult",
    "DimensionMismatch",
    "EmptyUniversalSet",
    "ExactLapError",
    "GraphOracle",
    "GraphSpecError",
    "InsufficientDomain",
    "LambdaField",
    "LiftFailed",
    "NotStabilized",
    "OracleInconsistent",
    "RationalMatrix",
    "SingularSystem",
    "SolveReport",
    "SpecFormatError",
    "TargetFunction",
    "VertexBudgetExceeded",
    "affine_solution_set",
    "affine_subset",
    "apply_laplacian",
    "coherent_solution",
    "custom_oracle",
    "cycle_oracle",
    "determinant",
    "enumerate_ball",
    "family_oracle",
    "free_group_oracle",
    "grid_oracle",
    "ladder_oracle",
    "line_oracle",
    "max_principle_certificate",
    "path_oracle",
    "prodiscrete_distance",
    "restricted_operator_matrix",
    "run_chain",
    "solution_image",
    "solve_exact",
    "solve_on_ball",
    "subspace_equal",
    "tree_oracle",
    "truncated_operator_matrix",
    "universal_element",
    "validate_oracle",
]
