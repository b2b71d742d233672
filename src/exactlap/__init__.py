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
from .chain import ChainState, run_chain
from .direct import (
    Certificate,
    SolveReport,
    affine_solution_set,
    max_principle_certificate,
    prodiscrete_distance,
    solve_on_ball,
)
from .families import free_group_oracle, grid_oracle, ladder_oracle, line_oracle, tree_oracle
from .finite import custom_oracle, cycle_oracle, path_oracle
from .functions import BallFunction, TargetFunction
from .graphs import family_oracle, validate_oracle
from .linalg import affine_subset, determinant, solve_exact, subspace_equal
from .matrix import RationalMatrix
from .operators import LambdaField, apply_laplacian, restricted_operator_matrix, truncated_operator_matrix
from .oracle import Ball, GraphOracle, enumerate_ball
from .solver import CoherentResult, coherent_solution, universal_element
from .subspace import AffineSubspace, solution_image

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
