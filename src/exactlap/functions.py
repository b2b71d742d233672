"""Rational functions on balls, and the targets the solver matches.

A `BallFunction` holds its values in ball order, so restriction to a
smaller ball is a prefix and extension by zero pads it.  A
`TargetFunction` is a right-hand side in closed form, evaluable at any
vertex the solver probes.  The operator that maps one to the other is in
`exactlap.operators`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction

from .errors import BadRadii, DimensionMismatch
from .matrix import Vector
from .oracle import Ball, GraphOracle
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
