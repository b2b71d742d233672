"""The direct route: one square solve of the truncated operator per ball.

On an infinite graph the square truncation on B_n is invertible (a
function supported in the ball whose operator values vanish on the ball
would have constant modulus on the strictly larger ball, hence be zero),
so every target admits a unique finitely-supported preimage agreeing with
it on B_n.  Each such solve pins a global solution to within prodiscrete
distance 2^-(n+1).  `verified` builds the report of every solve, this one
and the coherent route's top level alike: it re-checks the solution
through the one re-check, `exactlap.operators.solves`, and takes the bound
from `_tail`.  The invertibility certificate, the rectangular solution
sets and the prodiscrete metric live here too; the coherent route is in
`exactlap.chain` and `exactlap.solver`.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .errors import BadRadii, DimensionMismatch, InsufficientDomain, SingularSystem
from .functions import BallFunction, TargetFunction
from .linalg import determinant, solve_exact
from .operators import LambdaField, restricted_operator_matrix, solves, truncated_operator_matrix
from .oracle import Ball, GraphOracle, enumerate_ball
from .record import Record
from .subspace import AffineSubspace

__all__ = (
    "Certificate", "SolveReport", "affine_solution_set", "max_principle_certificate",
    "prodiscrete_distance", "solve_on_ball",
)

class SolveReport(Record):
    """A verified preimage on a ball.

    ``metric_bound`` is the prodiscrete distance from the reported solution
    to any global solution that agrees with it on the ball of ``radius``.
    ``residual_ok`` records an independent re-application of the operator,
    not a byproduct of the solve.
    """

    radius: int
    solution: BallFunction
    residual_ok: bool
    metric_bound: Fraction


class Certificate(Record):
    """Invertibility certificate for the square truncation at one radius.

    ``strict_inclusion`` is the geometric hypothesis (the ball of radius
    n+1 properly contains the ball of radius n); the certificate passes iff
    that hypothesis forces a nonzero determinant, vacuously when the ball
    has saturated a finite graph.
    """

    strict_inclusion: bool
    determinant: Fraction
    passes: bool


def _tail(n: int) -> Fraction:
    """2^-(n+1), the prodiscrete weight of every ball beyond B_n taken together."""
    return Fraction(1, 2 ** (n + 1))


def verified(
    oracle: GraphOracle,
    target: TargetFunction,
    lam: LambdaField,
    n: int,
    solution: BallFunction,
) -> SolveReport:
    """The report on ``solution``, a claimed preimage of the target on B_n.

    The solution, supported in B_n or given on B_{n+1}, is extended by zero
    to B_{n+1} and re-checked there through `solves`.
    """
    outer = enumerate_ball(oracle, n + 1)
    return SolveReport(
        radius=n,
        solution=solution,
        residual_ok=solves(oracle, solution.extend_zero(outer), target, lam),
        metric_bound=_tail(n),
    )


def _solve_on(
    oracle: GraphOracle, target: TargetFunction, n: int, lam: LambdaField, assemble: Callable
) -> tuple[Ball, AffineSubspace]:
    """B_n, and the solutions of ``assemble(oracle, n, lam) x = target`` on B_n."""
    if n < 0:
        raise BadRadii("radius must be nonnegative")
    ball = enumerate_ball(oracle, n)
    return ball, solve_exact(assemble(oracle, n, lam), target.on_ball(ball).values)


def solve_on_ball(
    oracle: GraphOracle, target: TargetFunction, n: int, lam: LambdaField
) -> SolveReport:
    """Unique preimage supported in B_n whose operator values match the target on B_n.

    Raises SingularSystem exactly when the square truncation is singular,
    which happens precisely when the ball has swallowed a finite graph.
    """
    ball, solution_set = _solve_on(oracle, target, n, lam, truncated_operator_matrix)
    if solution_set.is_empty or solution_set.dim != 0:
        raise SingularSystem(
            f"truncated operator is singular at radius {n}"
            + (" (ball saturated a finite graph)" if ball.boundary_saturated else ""),
            radius=n,
            boundary_saturated=ball.boundary_saturated,
        )
    f = BallFunction(ball, solution_set.particular)
    return verified(oracle, target, lam, n, f)


def max_principle_certificate(oracle: GraphOracle, n: int, lam: LambdaField) -> Certificate:
    """Exact determinant of the square truncation plus the geometric hypothesis."""
    # B_n is strictly inside B_{n+1} exactly when some vertex lies at distance n+1
    strict = not enumerate_ball(oracle, n).boundary_saturated
    det = determinant(truncated_operator_matrix(oracle, n, lam))
    return Certificate(
        strict_inclusion=strict,
        determinant=det,
        passes=(not strict) or det != 0,
    )


def affine_solution_set(
    oracle: GraphOracle, target: TargetFunction, n: int, lam: LambdaField
) -> AffineSubspace:
    """All functions on B_{n+1} whose operator values match the target on B_n."""
    return _solve_on(oracle, target, n, lam, restricted_operator_matrix)[1]


def prodiscrete_distance(
    f: BallFunction, h: BallFunction, depth: int
) -> tuple[Fraction, Fraction]:
    """Exact lower/upper bounds on the prodiscrete distance between two functions.

    The distance weights disagreement on the ball of radius n by 2^-(n+1)
    and sums over all n.  Only terms up to ``depth`` are computable from
    ball data; the upper bound adds the full geometric tail, so agreement
    on B_k always yields an upper bound of at most 2^-(k+1).
    """
    if depth < 0:
        raise BadRadii("depth must be nonnegative")
    if f.ball.oracle is not h.ball.oracle:
        raise DimensionMismatch("functions live on different graphs")
    if f.ball.radius < depth or h.ball.radius < depth:
        raise InsufficientDomain(
            f"both functions must cover the ball of radius {depth}"
        )
    scope = enumerate_ball(f.ball.oracle, depth)
    first_disagreement: int | None = None
    for v in scope.vertices:
        if f.values[v] != h.values[v]:
            first_disagreement = scope.oracle.distance(v)
            break
    tail = _tail(depth)
    if first_disagreement is None:
        return Fraction(0), tail
    lower = Fraction(1, 2**first_disagreement) - tail
    return lower, lower + tail
