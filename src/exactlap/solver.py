"""Exact preimages of the ball-truncated operator, two ways.

The direct route (`exactlap.direct`) solves the square truncation on B_n
once per ball.  The coherent route watches, for each level n, the chain
of images on B_{n+1} of the deeper solution sets until it stabilizes
(`exactlap.chain`).  Elements of the stabilized image extend level by
level, so one obtains a family x_0, x_1, ... where each x_{n+1} agrees
with x_n on its whole domain ball; the union is a single global preimage.
This module reads those elements off the stabilized images and builds the
family.  Its top level is reported through `exactlap.direct.verified`,
like every ball solve, so it passes the one re-check,
`exactlap.operators.solves`.  The benchmark binds the direct route's
functions here.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import ChainState, run_chain
from .direct import SolveReport, verified
# kept for the benchmark's tracer and the acceptance tests, which find these here
from .direct import affine_solution_set, max_principle_certificate, prodiscrete_distance, solve_on_ball
from .errors import BadRadii, EmptyUniversalSet, LiftFailed
from .functions import BallFunction, TargetFunction
from .linalg import determinant  # kept for the benchmark's self-test
from .operators import LambdaField
from .oracle import GraphOracle, enumerate_ball
from .record import Record

__all__ = ("CoherentResult", "coherent_solution", "universal_element")

def _lift(chain: ChainState, prefix: tuple[Fraction, ...]) -> BallFunction:
    """The member of the chain's stabilized image that extends ``prefix``.

    ``img.member(prefix)`` is the only member that can extend the prefix
    and is 0 on the free columns outside it: it agrees with the prefix on
    the free columns inside it, and the row of a solved column inside the
    prefix holds only free columns below that column, so the free columns
    outside the prefix change nothing on it.  The empty prefix therefore
    gives the canonical point.  Raises
    EmptyUniversalSet on an empty image and LiftFailed, rather than a
    guess, when that member does not extend the prefix.
    """
    img = chain.stabilized_image  # raises NotStabilized when appropriate
    if img.is_empty:
        deepest = chain.images[-1][0]
        raise EmptyUniversalSet(
            f"stabilized image at level {chain.level} is empty; no function solves the "
            f"target through depth {deepest}",
            level=chain.level,
            boundary_saturated=enumerate_ball(chain.ball.oracle, deepest).boundary_saturated,
        )
    lifted = BallFunction(chain.ball, img.member(prefix))
    if lifted.values[: len(prefix)] != prefix:
        raise LiftFailed(
            f"no element of the stabilized image at level {chain.level} extends level {chain.level - 1}"
        )
    return lifted


def universal_element(chain: ChainState) -> BallFunction:
    """Canonical member of the stabilized image at the chain's level.

    The stabilized image is exactly the set of values on B_{level+1} that
    extend to solutions at every recorded deeper level; its canonical
    particular point makes the choice deterministic.
    """
    return _lift(chain, ())


class CoherentResult(Record):
    """A compatible family of ball solutions plus the verified top-level report."""

    levels: tuple[BallFunction, ...]
    report: SolveReport


def coherent_solution(
    oracle: GraphOracle,
    target: TargetFunction,
    big_n: int,
    max_m: int,
    window: int,
    lam: LambdaField,
) -> CoherentResult:
    """Build x_0, ..., x_N with x_{n+1} extending x_n and exact residuals.

    x_0 is the universal element at level 0, and each later x_{n+1} is the
    member of the stabilized image at level n+1 that extends x_n.  One
    exists whenever the stabilized images are the true eventual images;
    otherwise LiftFailed is raised rather than a guess.
    """
    if big_n < 0:
        raise BadRadii("level count must be nonnegative")
    chains = [run_chain(oracle, target, n, max_m, window, lam) for n in range(big_n + 1)]
    levels: list[BallFunction] = []
    for chain in chains:
        levels.append(_lift(chain, levels[-1].values if levels else ()))
    report = verified(oracle, target, lam, big_n, levels[-1])
    return CoherentResult(levels=tuple(levels), report=report)
