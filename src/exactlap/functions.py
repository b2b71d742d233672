"""Rational functions on balls, and vertex functions in closed form.

A `BallFunction` holds its values in ball order, so restriction to a
smaller ball is a prefix and extension by zero pads it.  A `VertexField`
is a vertex function in closed form with the one `value` of the package's
targets (`TargetFunction`, here) and weights (`LambdaField`, in
`exactlap.operators`, beside the operator that maps ball functions to
target values).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction

from .errors import BadRadii, DimensionMismatch
from .matrix import _ZERO, Vector
from .oracle import Ball, GraphOracle
from .record import Record

__all__ = ("BallFunction", "TargetFunction")


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
        if smaller.oracle is not self.ball.oracle:
            raise DimensionMismatch("balls come from different oracles")
        return BallFunction(smaller, self.values[: smaller.size])

    def extend_zero(self, larger: Ball) -> "BallFunction":
        """Extension by zero to a larger ball."""
        if larger.radius < self.ball.radius:
            raise BadRadii(f"cannot extend radius {self.ball.radius} to {larger.radius}")
        if larger.oracle is not self.ball.oracle:
            raise DimensionMismatch("balls come from different oracles")
        pad = (Fraction(0),) * (larger.size - self.ball.size)
        return BallFunction(larger, self.values + pad)

    def label_items(self) -> list[tuple[str, Fraction]]:
        oracle = self.ball.oracle
        return [(oracle.label(v), x) for v, x in zip(self.ball.vertices, self.values)]


class VertexField:
    """A rational function on the vertices, given in closed form.

    It is either a profile of the distance to the root, evaluable at any
    vertex the solver probes without materializing the graph, or a finite
    map by vertex id that is zero elsewhere.  ``kind`` and ``data`` name
    the closed form for reprs and reports; only `value` reads the profile
    or the map.
    """

    def __init__(self, kind: str, data=None, *, profile=None, entries=None):
        self.kind = kind
        self.data = data
        self._profile = profile
        self._entries = entries

    def value(self, oracle: GraphOracle, v: int) -> Fraction:
        if self._profile is None:
            return self._entries.get(v, _ZERO)
        return self._profile(oracle.distance(v))


class TargetFunction(VertexField):
    """Right-hand side evaluable at any vertex the solver probes: a unit
    impulse at the root, a radial profile, or an explicit finitely-supported
    map."""

    @classmethod
    def delta(cls) -> "TargetFunction":
        return cls("delta", entries={0: Fraction(1)})  # the root is id 0

    @classmethod
    def radial(cls, coeffs) -> "TargetFunction":
        """Profile given by a coefficient list indexed by distance; zero beyond."""
        c = tuple(Fraction(x) for x in coeffs)
        return cls("radial", c, profile=lambda d: c[d] if d < len(c) else _ZERO)

    @classmethod
    def radial_fn(cls, fn: Callable[[int], Fraction]) -> "TargetFunction":
        """Profile given by an arbitrary distance -> rational function."""
        return cls("radial_fn", fn, profile=lambda d: Fraction(fn(d)))

    @classmethod
    def sparse(cls, entries: Mapping[int, Fraction]) -> "TargetFunction":
        clean = {int(v): Fraction(x) for v, x in entries.items() if Fraction(x)}
        return cls("sparse", clean, entries=clean)

    def on_ball(self, ball: Ball) -> BallFunction:
        oracle = ball.oracle
        return BallFunction(ball, tuple(self.value(oracle, v) for v in ball.vertices))

    def __repr__(self) -> str:
        return f"TargetFunction({self.kind})"
