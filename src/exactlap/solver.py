"""Exact preimages of the ball-truncated operator, two ways.

The direct route solves the square truncation on B_n: on an infinite graph
that matrix is invertible (a function supported in the ball whose operator
values vanish on the ball would have constant modulus on the strictly
larger ball, hence be zero), so every target admits a unique
finitely-supported preimage agreeing with it on B_n.  Each such solve pins
a global solution to within prodiscrete distance 2^-(n+1).

The coherent route tracks, for each level n, the image on B_{n+1} of the
affine solution sets of the deeper rectangular truncations, and waits for
that non-increasing chain of affine subspaces to stop shrinking.  Each
image is computed by eliminating the deep unknowns (those outside
B_{n+1}) first, so no deep solution set is ever built.  Elements of the
stabilized image extend level by level, so one obtains a family x_0, x_1,
... where each x_{n+1} agrees with x_n on its whole domain ball; the union
is a single global preimage.

Stabilization asks for a configurable number of consecutive chain images
that are equal as canonical affine subspaces.  On a finite graph the run
must end at a depth m whose ball B_m is the whole graph: from there on the
system no longer changes, so the image is exact.  On an infinite graph the
run is a window observation.  If the depth budget runs out first, the
honest answer is "window exceeded", never a claimed stabilization.  The
canonical point of a stabilized image is re-checked against the target
through `apply_laplacian`, as are the ball and coherent solutions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadRadii,
    ChainViolation,
    DimensionMismatch,
    EmptyUniversalSet,
    InsufficientDomain,
    LiftFailed,
    NotStabilized,
    SingularSystem,
)
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
from .record import Record

BALL_CONSTRUCTION = "ball"
COHERENT_CONSTRUCTION = "ml"


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
    construction: str
    metric_bound: Fraction


class Certificate(Record):
    """Invertibility certificate for the square truncation at one radius.

    ``strict_inclusion`` is the geometric hypothesis (the ball of radius
    n+1 properly contains the ball of radius n); the certificate passes iff
    that hypothesis forces a nonzero determinant, vacuously when the ball
    has saturated a finite graph.
    """

    radius: int
    strict_inclusion: bool
    determinant: Fraction
    passes: bool


def solve_on_ball(
    oracle: GraphOracle, target: TargetFunction, n: int, lam: LambdaField
) -> SolveReport:
    """Unique preimage supported in B_n whose operator values match the target on B_n.

    Raises SingularSystem exactly when the square truncation is singular,
    which happens precisely when the ball has swallowed a finite graph.
    """
    if n < 0:
        raise BadRadii("radius must be nonnegative")
    ball = enumerate_ball(oracle, n)
    matrix = truncated_operator_matrix(oracle, n, lam)
    rhs = target.on_ball(ball).values
    solution_set = solve_exact(matrix, rhs)
    if solution_set.is_empty or solution_set.dim != 0:
        raise SingularSystem(
            f"truncated operator is singular at radius {n}"
            + (" (ball saturated a finite graph)" if ball.boundary_saturated else ""),
            radius=n,
            boundary_saturated=ball.boundary_saturated,
        )
    f = BallFunction(ball, solution_set.particular)
    outer = enumerate_ball(oracle, n + 1)
    applied = apply_laplacian(oracle, f.extend_zero(outer), lam)
    residual_ok = applied.values == rhs
    return SolveReport(
        radius=n,
        solution=f,
        residual_ok=residual_ok,
        construction=BALL_CONSTRUCTION,
        metric_bound=Fraction(1, 2 ** (n + 1)),
    )


def max_principle_certificate(oracle: GraphOracle, n: int, lam: LambdaField) -> Certificate:
    """Exact determinant of the square truncation plus the geometric hypothesis."""
    # B_n is strictly inside B_{n+1} exactly when some vertex lies at distance n+1
    strict = not enumerate_ball(oracle, n).boundary_saturated
    det = determinant(truncated_operator_matrix(oracle, n, lam))
    return Certificate(
        radius=n,
        strict_inclusion=strict,
        determinant=det,
        passes=(not strict) or det != 0,
    )


def affine_solution_set(
    oracle: GraphOracle, target: TargetFunction, n: int, lam: LambdaField
) -> AffineSubspace:
    """All functions on B_{n+1} whose operator values match the target on B_n."""
    if n < 0:
        raise BadRadii("radius must be nonnegative")
    inner = enumerate_ball(oracle, n)
    matrix = restricted_operator_matrix(oracle, n, lam)
    return solve_exact(matrix, target.on_ball(inner).values)


def _dim_rank(s: AffineSubspace) -> int:
    # orders the empty set below every genuine dimension
    return -1 if s.is_empty else len(s.basis)


class ChainState(Record):
    """Images of the solution sets at one level, across increasing depths.

    ``images[i]`` is the pair (m, image on B_{level+1} of the solution set
    at depth m); entries are nested and non-increasing in dimension.
    ``stabilized_at`` is the start of the verified run of equal images, or
    None when the depth budget ran out first.
    """

    level: int
    max_m: int
    window: int
    ball: Ball  # B_{level+1}, the ambient ball of every image
    images: tuple[tuple[int, AffineSubspace], ...]
    stabilized_at: int | None

    @property
    def status(self) -> str:
        return "stabilized" if self.stabilized_at is not None else "window_exceeded"

    @property
    def stabilized_image(self) -> AffineSubspace:
        if self.stabilized_at is None:
            raise NotStabilized(
                f"chain at level {self.level} saw no {self.window} equal images up to depth {self.max_m}"
            )
        return self.images[-1][1]

    def dims(self) -> list[tuple[int, int | None]]:
        return [(m, s.dim) for m, s in self.images]


def run_chain(
    oracle: GraphOracle,
    target: TargetFunction,
    n: int,
    max_m: int,
    window: int,
    lam: LambdaField,
) -> ChainState:
    """Image on B_{n+1} of the solution sets at depths m = n..max_m.

    Each image eliminates deep unknowns first: the unknowns outside
    B_{n+1} are eliminated from the depth-m system, and the rows left over
    cut out the image, so the solution set on B_{m+1} is never built.
    Stops as soon as ``window`` consecutive images are equal as canonical
    subspaces, reporting where constancy began; on a finite graph the last
    of them must also be at a depth m whose B_m is saturated, from where
    the system no longer changes.  Each image is compared with the previous
    one first: an equal image needs no nesting test, and a changed one must
    be of strictly smaller dimension and contained in the previous image.
    The canonical point of a non-empty stabilized image is re-checked
    against the target through `apply_laplacian`.  A violation means a
    bug, not a mathematical outcome, and raises ChainViolation.
    """
    if n > max_m:
        raise BadRadii(f"chain needs level {n} <= depth budget {max_m}")
    if window < 1:
        raise ValueError("stabilization window must be >= 1")
    ambient_ball = enumerate_ball(oracle, n + 1)
    images: list[tuple[int, AffineSubspace]] = []
    prev: AffineSubspace | None = None
    run_length = -1  # the current run of equal images has run_length + 1 of them
    stabilized_at: int | None = None
    for m in range(n, max_m + 1):
        ball = enumerate_ball(oracle, m)
        rhs = target.on_ball(ball).values
        img = solution_image(restricted_operator_matrix(oracle, m, lam), rhs, ambient_ball.size)
        if prev is None or subspace_equal(img, prev):
            run_length += 1
        else:
            if _dim_rank(img) >= _dim_rank(prev):
                raise ChainViolation(f"image dimension did not drop where it changed at depth {m}")
            if not affine_subset(img, prev):
                raise ChainViolation(
                    f"projection from depth {m} is not contained in the previous image"
                )
            run_length = 0
        images.append((m, img))
        prev = img
        # on a finite graph only a saturated B_m fixes the system for good
        if run_length >= window - 1 and (ball.boundary_saturated or not oracle.finite):
            stabilized_at = m - run_length
            break
    if stabilized_at is not None and not prev.is_empty:
        applied = apply_laplacian(oracle, BallFunction(ambient_ball, prev.particular), lam)
        if applied.values != target.on_ball(enumerate_ball(oracle, n)).values:
            raise ChainViolation(
                f"canonical point of the stabilized image at level {n} misses the target"
            )
    return ChainState(
        level=n,
        max_m=max_m,
        window=window,
        ball=ambient_ball,
        images=tuple(images),
        stabilized_at=stabilized_at,
    )


def _lift(chain: ChainState, prefix: tuple[Fraction, ...]) -> BallFunction:
    """The member of the chain's stabilized image that extends ``prefix``.

    ``img.member(prefix)`` is the only member that can extend the prefix:
    it agrees with the prefix on the basis pivot columns inside it, and a
    basis vector pivoted outside the prefix vanishes on all of it.  The
    empty prefix therefore gives the canonical point.  Raises
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
    top = levels[-1]
    inner = enumerate_ball(oracle, big_n)
    applied = apply_laplacian(oracle, top, lam)
    residual_ok = applied.values == target.on_ball(inner).values
    report = SolveReport(
        radius=big_n,
        solution=top,
        residual_ok=residual_ok,
        construction=COHERENT_CONSTRUCTION,
        metric_bound=Fraction(1, 2 ** (big_n + 1)),
    )
    return CoherentResult(levels=tuple(levels), report=report)


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
            first_disagreement = scope.distances[v]
            break
    tail = Fraction(1, 2 ** (depth + 1))
    if first_disagreement is None:
        return Fraction(0), tail
    lower = Fraction(1, 2**first_disagreement) - tail
    return lower, lower + tail
