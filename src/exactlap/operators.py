"""The combinatorial Laplacian and its finite truncations on balls.

The operator acts on real-valued vertex functions by

    (L f)(v) = (1 + lam(v)) f(v) - (1/deg v) * sum of f over neighbors of v,

with ``lam`` a nonnegative vertex weight (identically zero gives the plain
Laplacian).  Two finite matrices represent it here, both indexed in ball
order:

* the square truncation on functions supported in B_n, which ignores
  neighbors outside the ball (they carry value zero);
* the rectangular restriction taking a function on B_{n+1} to the operator
  values on B_n, where every neighbor is inside the domain ball.

Keeping the two separate matters: the square one is invertible on infinite
graphs, while the rectangular one has a solution set of positive dimension
that the chain machinery in the solver tracks across radii.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction

from .errors import BadRadii, DimensionMismatch, InsufficientDomain
from .kernel import RationalMatrix, Vector
from .oracle import Ball, GraphOracle, enumerate_ball
from .record import Record


class BallFunction(Record):
    """A rational-valued function on a ball, stored in canonical vertex order."""

    ball: Ball
    values: Vector

    def __post_init__(self) -> None:
        if len(self.values) != self.ball.size:
            raise DimensionMismatch(
                f"{len(self.values)} values for a ball of {self.ball.size} vertices"
            )

    def restrict(self, smaller: Ball) -> "BallFunction":
        """Restriction to a smaller ball is literally a prefix of the values."""
        if smaller.radius > self.ball.radius:
            raise BadRadii(f"cannot restrict radius {self.ball.radius} to {smaller.radius}")
        return BallFunction(smaller, self.values[: smaller.size])

    def extend_zero(self, larger: Ball) -> "BallFunction":
        """Extension by zero to a larger ball."""
        if larger.radius < self.ball.radius:
            raise BadRadii(f"cannot extend radius {self.ball.radius} to {larger.radius}")
        pad = (Fraction(0),) * (larger.size - self.ball.size)
        return BallFunction(larger, self.values + pad)

    def label_items(self) -> list[tuple[str, Fraction]]:
        oracle = self.ball.oracle
        return [(oracle.label(v), x) for v, x in zip(self.ball.vertices, self.values)]


class LambdaField:
    """Nonnegative vertex weight added to the diagonal of the operator."""

    def __init__(self, kind: str, data=None):
        self.kind = kind
        self.data = data

    @classmethod
    def zero(cls) -> "LambdaField":
        return cls("zero")

    @classmethod
    def constant(cls, c) -> "LambdaField":
        c = Fraction(c)
        if c < 0:
            raise ValueError(f"lambda weight must be nonnegative, got {c}")
        return cls("constant", c)

    @classmethod
    def distance(cls) -> "LambdaField":
        """Weight equal to the graph distance from the root."""
        return cls("distance")

    @classmethod
    def from_map(cls, entries: Mapping[int, Fraction]) -> "LambdaField":
        """Explicit per-vertex weights keyed by id; unlisted vertices get zero."""
        clean = {}
        for v, x in entries.items():
            x = Fraction(x)
            if x < 0:
                raise ValueError(f"lambda weight must be nonnegative, got {x} at vertex {v}")
            if x:
                clean[int(v)] = x
        return cls("map", clean)

    def value(self, oracle: GraphOracle, v: int) -> Fraction:
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "constant":
            return self.data
        if self.kind == "distance":
            return Fraction(oracle.distance(v))
        return self.data.get(v, Fraction(0))

    def __repr__(self) -> str:
        return f"LambdaField({self.kind}{'' if self.data is None else ', ' + repr(self.data)})"


class TargetFunction:
    """Right-hand side evaluable at any vertex the solver probes.

    Closed forms keep unbounded targets expressible without materializing
    the graph: a unit impulse at the root, a radial profile depending only
    on the distance to the root, or an explicit finitely-supported map.
    """

    def __init__(self, kind: str, data=None):
        self.kind = kind
        self.data = data

    @classmethod
    def delta(cls) -> "TargetFunction":
        return cls("delta")

    @classmethod
    def radial(cls, coeffs) -> "TargetFunction":
        """Profile given by a coefficient list indexed by distance; zero beyond."""
        return cls("radial", tuple(Fraction(c) for c in coeffs))

    @classmethod
    def radial_fn(cls, fn: Callable[[int], Fraction]) -> "TargetFunction":
        """Profile given by an arbitrary distance -> rational function."""
        return cls("radial_fn", fn)

    @classmethod
    def sparse(cls, entries: Mapping[int, Fraction]) -> "TargetFunction":
        clean = {int(v): Fraction(x) for v, x in entries.items() if Fraction(x)}
        return cls("sparse", clean)

    def value(self, oracle: GraphOracle, v: int) -> Fraction:
        if self.kind == "delta":
            return Fraction(1) if v == oracle.root else Fraction(0)
        if self.kind == "radial":
            d = oracle.distance(v)
            return self.data[d] if d < len(self.data) else Fraction(0)
        if self.kind == "radial_fn":
            return Fraction(self.data(oracle.distance(v)))
        return self.data.get(v, Fraction(0))

    def on_ball(self, ball: Ball) -> BallFunction:
        oracle = ball.oracle
        return BallFunction(ball, tuple(self.value(oracle, v) for v in ball.vertices))

    def __repr__(self) -> str:
        return f"TargetFunction({self.kind})"


def apply_laplacian(oracle: GraphOracle, f: BallFunction, lam: LambdaField) -> BallFunction:
    """Apply the operator to a function on B_{n+1}, yielding values on B_n.

    This is a direct evaluation of the defining formula over the adjacency
    oracle, independent of any matrix assembly; solver residual checks rely
    on that independence.
    """
    m = f.ball.radius
    if m < 1:
        raise InsufficientDomain("need values on a ball of radius >= 1")
    inner = enumerate_ball(oracle, m - 1)
    out = []
    for v in inner.vertices:
        nbs = oracle.neighbors(v)
        s = sum((f.values[w] for w in nbs), Fraction(0))
        out.append((1 + lam.value(oracle, v)) * f.values[v] - s / len(nbs))
    return BallFunction(inner, tuple(out))


def _operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField, width: int) -> RationalMatrix:
    """Rows of the operator on B_n over the first ``width`` ball ids, assembled sparsely."""
    rows = []
    for v in enumerate_ball(oracle, n).vertices:
        nbs = oracle.neighbors(v)
        coef = Fraction(-1, len(nbs))
        row = {v: 1 + lam.value(oracle, v)}
        row.update((w, coef) for w in nbs if w < width)
        rows.append(row)
    return RationalMatrix.from_rows(rows, width)


def truncated_operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField) -> RationalMatrix:
    """Square matrix of the operator on functions supported in B_n.

    Row v: diagonal 1 + lam(v); entry -1/deg(v) at each neighbor inside the
    ball.  Neighbors outside B_n contribute nothing because the function
    vanishes there.
    """
    return _operator_matrix(oracle, n, lam, enumerate_ball(oracle, n).size)


def restricted_operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField) -> RationalMatrix:
    """Rectangular matrix taking values on B_{n+1} to operator values on B_n."""
    return _operator_matrix(oracle, n, lam, enumerate_ball(oracle, n + 1).size)


def restriction_matrix(small: Ball, large: Ball) -> RationalMatrix:
    """0/1 projection selecting the smaller ball's prefix of the larger ball.

    Kept for the benchmark's tracer, which binds this name; the solver cuts
    prefixes off its images directly.
    """
    if small.radius > large.radius:
        raise BadRadii(f"restriction needs radius {small.radius} <= {large.radius}")
    if small.oracle is not large.oracle:
        raise DimensionMismatch("balls come from different oracles")
    return RationalMatrix.from_rows(({i: Fraction(1)} for i in range(small.size)), large.size)
