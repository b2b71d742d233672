"""Exception types shared across the package."""

__all__ = (
    "BadFamilyParameter", "BadRadii", "ChainViolation", "DimensionMismatch", "EmptyUniversalSet",
    "ExactLapError", "GraphSpecError", "InsufficientDomain", "LiftFailed", "NotStabilized",
    "OracleInconsistent", "SingularSystem", "SpecFormatError", "VertexBudgetExceeded",
)


class ExactLapError(Exception):
    """Base class for all errors raised by this package."""


class OracleInconsistent(ExactLapError):
    """A neighbor list changed between queries of the same vertex."""


class VertexBudgetExceeded(ExactLapError):
    """An oracle would discover more vertices than its budget allows."""

    def __init__(self, budget: int, graph: str):
        self.budget = budget
        self.graph = graph
        super().__init__(f"graph {graph!r} would discover more than {budget} vertices")


class BadFamilyParameter(ExactLapError):
    """A graph-family parameter is outside its admissible range."""


class GraphSpecError(ExactLapError):
    """A JSON graph description is malformed or violates the standing hypotheses."""


class SpecFormatError(ExactLapError):
    """A target, weight, or rational literal is malformed."""


class DimensionMismatch(ExactLapError):
    """Matrix/vector/subspace shapes are incompatible."""


class BadRadii(ExactLapError):
    """Radius arguments violate the required ordering."""


class InsufficientDomain(ExactLapError):
    """A vertex function does not cover the ball an operation needs."""


class SingularSystem(ExactLapError):
    """The truncated operator matrix is singular.

    Expected when the ball has saturated a finite graph; an anomaly on an
    infinite graph, where the truncated operator is provably invertible.
    """

    def __init__(self, message: str, radius: int, boundary_saturated: bool):
        self.radius = radius
        self.boundary_saturated = boundary_saturated
        super().__init__(message)


class NotStabilized(ExactLapError):
    """A chain did not reach a stabilized image within its level budget."""


class EmptyUniversalSet(ExactLapError):
    """A stabilized image is empty, so no coherent solution exists.

    Expected when a finite graph has no preimage for the target at all; an
    anomaly on an infinite graph, where every chain image is nonempty.
    """

    def __init__(self, message: str, level: int, boundary_saturated: bool):
        self.level = level
        self.boundary_saturated = boundary_saturated
        super().__init__(message)


class LiftFailed(ExactLapError):
    """No element of the next stabilized image extends the current one."""


class ChainViolation(ExactLapError):
    """Chain images failed to be nested; indicates a bug, not a valid outcome."""
