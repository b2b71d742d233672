"""Image chains: the solution sets of deeper truncations, seen on one ball.

For each level n the coherent route tracks the image on B_{n+1} of the
affine solution sets of the deeper rectangular truncations, and waits for
that non-increasing chain of affine subspaces to stop shrinking.  Each
image is computed by eliminating the deep unknowns (those outside
B_{n+1}) first, so no deep solution set is ever built.

Stabilization asks for a configurable number of consecutive chain images
that are equal as canonical affine subspaces.  On a finite graph the run
must end at a depth m whose ball B_m is the whole graph: from there on the
system no longer changes, so the image is exact.  On an infinite graph the
run is a window observation.  If the depth budget runs out first, the
honest answer is "window exceeded", never a claimed stabilization.  The
canonical point of a stabilized image is re-checked against the target
through the one re-check, `exactlap.operators.solves`.
"""

from __future__ import annotations

from .errors import BadRadii, ChainViolation, NotStabilized
from .functions import BallFunction, TargetFunction
from .linalg import affine_subset, subspace_equal
from .operators import LambdaField, restricted_operator_matrix, solves
from .oracle import Ball, GraphOracle, enumerate_ball
from .record import Record
from .subspace import AffineSubspace, solution_image

__all__ = ("ChainState", "run_chain")


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
    against the target through `solves`.  A violation means a
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
            if not img.is_empty and (prev.is_empty or img.dim >= prev.dim):
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
        if not solves(oracle, BallFunction(ambient_ball, prev.particular), target, lam):
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
